// Shared last-level cache: set-associative, exact LRU, write-back/
// write-allocate.
//
// Lines are inserted the moment their fill is *issued*, with the time
// `ready_at` their data arrives: a later access to an in-flight line hits
// but may not use the data before `ready_at`.  This gives miss-merging and
// lets the prefetcher insert future lines without extra machinery.
//
// Host layout.  A probe touches one set block and nothing else.  Each block
// holds, in order: the set's `ways` tags as u32 values of
// `line >> log2(num_sets)`; one u8 LRU rank per way; a u8 fill count; a
// dirty bitmap of ceil(ways/8) bytes; and, 8-byte aligned, the set's ready
// bound (a Time).  Blocks are padded to whole 64-byte host lines (two lines
// for 20 ways) in one zeroed anonymous mapping, so a zeroed block is an
// empty set and only touched sets are resident.  Ways [0, fill) are valid
// and ranks over them are a permutation of [0, fill) with 0 = most
// recently used, so LRU stays exact; lines are never invalidated, so the
// first invalid way is always `fill`.  Exact ready
// times live only in a small in-flight table keyed by line number, sized by
// the lines still in flight rather than by the cache.  prefetch() warms a
// set block for an upcoming access; it has no simulated effect.
//
// Exactness rules.  Every hit's usable time is max(earliest, ready_at)
// exactly, as if each line stored its own ready_at:
//  - Set bound.  Inserting an absent line raises its set's bound to at least
//    the line's ready_at, and nothing else changes the bound.  A re-insert
//    min-merges ready_at, which can only lower it, so the bound is always
//    >= the ready_at of every resident line.  A hit in a set whose bound is
//    <= `earliest` is usable at `earliest` without any per-line time.
//  - In-flight table.  Every insert of an absent line writes the line's
//    entry, overwriting any stale one left by an earlier eviction.  A
//    re-insert of a present line min-merges its entry if there is one.
//  - Pruning.  The `earliest` passed to usable() or advance() must not
//    decrease (checked).  An entry is dropped only when its ready_at <= the
//    largest `earliest` seen, so a resident line without an entry is already
//    usable at any later `earliest`.  Callers advance on misses too, so the
//    table stays sized by the lines in flight even when nothing hits.  The
//    table has no simulated effect.
//  - Dirty bit.  A store hit sets the way's bit through mark_dirty(); a
//    re-insert ORs its `dirty` in; a victim's writeback reads the bitmap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace emusim::xeon {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

class SetAssocCache {
 public:
  /// `capacity_bytes` split into `ways`-associative sets of `line_bytes`
  /// lines.  The set count is rounded down to a power of two.  `line_bytes`
  /// must be a power of two of at least 8 and `ways` at most 255.
  SetAssocCache(std::size_t capacity_bytes, int ways, int line_bytes);

  /// The way a lookup hit: compares equal to nullptr after a miss.  Valid
  /// until the next insert.
  class Hit {
   public:
    Hit() = default;
    explicit operator bool() const { return block_ != nullptr; }
    bool operator==(std::nullptr_t) const { return block_ == nullptr; }

   private:
    friend class SetAssocCache;
    Hit(char* block, int way) : block_(block), way_(way) {}
    char* block_ = nullptr;
    int way_ = 0;
  };

  /// Probe for the line containing `addr`; null on miss.  A hit makes the
  /// line most recently used.
  Hit lookup(std::uint64_t addr);
  /// True if the line is present (no LRU update; used by the prefetcher).
  bool contains(std::uint64_t addr) const;

  /// Declare that no later access completes before `earliest`, so in-flight
  /// entries that have landed by then may be pruned.  `earliest` must not
  /// decrease from one call to the next, here or in usable().
  void advance(Time earliest) {
    EMUSIM_CHECK_MSG(earliest >= clock_, "LLC probe time went backwards");
    clock_ = earliest;
  }
  /// When a hit line's data is usable by an access that could complete no
  /// earlier than `earliest`: max(earliest, ready_at).  Advances to
  /// `earliest` first.
  Time usable(Hit hit, Time earliest) {
    advance(earliest);
    if (bound(hit.block_) <= earliest) return earliest;
    return std::max(earliest, in_flight_ready_at(hit));
  }
  /// Mark a hit line dirty (a store hit).
  void mark_dirty(Hit hit) {
    dirty_bits(hit.block_)[hit.way_ >> 3] |=
        static_cast<std::uint8_t>(1u << (hit.way_ & 7));
  }
  /// True if a hit line holds data not yet written back.
  bool is_dirty(Hit hit) const {
    return (dirty_bits(hit.block_)[hit.way_ >> 3] >> (hit.way_ & 7)) & 1u;
  }

  struct Victim {
    bool evicted_dirty = false;
    std::uint64_t dirty_addr = 0;  ///< line address needing writeback
  };
  /// Install the line containing `addr` (evicting LRU if needed); the line
  /// becomes usable at `ready_at`.  Returns writeback info for the victim.
  /// Re-inserting a present line keeps the earlier `ready_at`, ORs in
  /// `dirty` and leaves the LRU order alone.
  Victim insert(std::uint64_t addr, Time ready_at, bool dirty);

  /// Host-only hint: start fetching the set block an access to `addr` will
  /// read.  Changes no simulated state and no stats.
  void prefetch(std::uint64_t addr) const {
    const char* block = block_of(set_of(addr >> line_shift_));
    for (std::size_t b = 0; b < block_bytes_; b += kHostLine) {
      __builtin_prefetch(block + b);
    }
  }

  /// Host memory the cache's metadata holds: the set blocks plus the
  /// in-flight table's slots.
  std::size_t host_bytes() const {
    return static_cast<std::size_t>(num_sets_) * block_bytes_ +
           flights_.capacity() * sizeof(Flight);
  }

  /// True if `addr`'s line tag fits the u32 tag store.
  bool addressable(std::uint64_t addr) const {
    return (addr >> line_shift_ >> set_shift_) <= UINT32_MAX;
  }

  std::uint64_t line_addr(std::uint64_t addr) const {
    return addr & ~(static_cast<std::uint64_t>(line_bytes_) - 1);
  }
  int line_bytes() const { return line_bytes_; }

  CacheStats stats;

 private:
  static constexpr std::size_t kHostLine = 64;
  /// In-flight table: open addressing with linear probing, at most half
  /// full; starts at 1024 slots (16 KiB).
  struct Flight {
    std::uint64_t line;  ///< line number; kNoLine marks an empty slot
    Time ready_at;
  };
  static constexpr std::uint64_t kNoLine = ~0ULL;
  static constexpr std::size_t kFlightSlots = 1024;

  /// Unmaps the set blocks.
  struct Unmap {
    std::size_t bytes;
    void operator()(char* p) const;
  };

  std::uint64_t set_of(std::uint64_t line) const {
    return line & (num_sets_ - 1);
  }
  std::uint32_t tag_of(std::uint64_t line) const {
    const std::uint64_t tag = line >> set_shift_;
    EMUSIM_CHECK_MSG(tag <= UINT32_MAX, "address beyond the LLC tag range");
    return static_cast<std::uint32_t>(tag);
  }
  char* block_of(std::uint64_t set) const {
    return blocks_.get() + set * block_bytes_;
  }
  static std::uint32_t* tags(char* block) {
    return reinterpret_cast<std::uint32_t*>(block);
  }
  std::uint8_t* ranks(char* block) const {
    return reinterpret_cast<std::uint8_t*>(block) + 4 * ways_;
  }
  std::uint8_t* dirty_bits(char* block) const {
    return reinterpret_cast<std::uint8_t*>(block) + 5 * ways_ + 1;
  }
  Time bound(const char* block) const {
    Time t;
    std::memcpy(&t, block + bound_offset_, sizeof t);
    return t;
  }
  void set_bound(char* block, Time t) const {
    std::memcpy(block + bound_offset_, &t, sizeof t);
  }
  /// Way holding `tag` among the `fill` valid ways, or -1.  Tags in a set
  /// are distinct, so the scan needs no early exit; without one it
  /// vectorises and does not mispredict on where the match sits.
  static int find(const std::uint32_t* tags, int fill, std::uint32_t tag) {
    int hit = -1;
    for (int w = 0; w < fill; ++w) hit = tags[w] == tag ? w : hit;
    return hit;
  }
  /// Make way `w` most recently used among `fill` valid ways.
  static void touch(std::uint8_t* rank, int fill, int w) {
    const std::uint8_t r = rank[w];
    if (r == 0) return;  // already MRU
    for (int v = 0; v < fill; ++v) rank[v] += rank[v] < r;
    rank[w] = 0;
  }

  /// The hit line's exact ready_at, or clock_ if it has no entry (it is
  /// ready).  Only reached when the set's bound has not passed.
  Time in_flight_ready_at(Hit hit) const;
  /// The slot where a probe for `line` starts.
  std::size_t flight_home(std::uint64_t line) const;
  /// Index of the slot holding `line`, or of the empty slot where it would
  /// go.
  std::size_t flight_index(std::uint64_t line) const;
  /// Drop every entry with ready_at <= clock_ in place (backward-shift
  /// deletion), then double the table if the survivors would still fill
  /// more than a quarter of it.
  void prune_flights();

  int ways_;
  int line_bytes_;
  int line_shift_;
  int set_shift_;
  std::uint64_t num_sets_;
  std::size_t block_bytes_;   ///< bytes per set block, whole host lines
  std::size_t bound_offset_;  ///< byte offset of the set's ready bound
  std::unique_ptr<char, Unmap> blocks_;  ///< page-aligned set blocks
  Time clock_ = 0;  ///< the largest `earliest` passed to advance()
  std::vector<Flight> flights_;
  std::size_t flight_count_ = 0;
};

}  // namespace emusim::xeon
