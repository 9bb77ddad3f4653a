// Shared last-level cache: set-associative, exact LRU, write-back/
// write-allocate.
//
// Entries carry a `ready_at` time so lines can be inserted the moment their
// fill is *issued*: a subsequent access to an in-flight line hits but may
// not use the data before `ready_at`.  This gives miss-merging and lets the
// prefetcher insert future lines without extra machinery.
//
// Host layout.  A probe touches one small contiguous set block: the set's
// `ways` tags as u32 values of `line >> log2(num_sets)`, then one u8 LRU
// rank per way, then a u8 fill count, padded to whole 64-byte host lines
// (two lines for 20 ways).  Ways [0, fill) are valid and ranks over them are
// a permutation of [0, fill) with 0 = most recently used, so LRU stays
// exact; lines are never invalidated, so the first invalid way is always
// `fill`.  A zeroed block is an empty set.  The per-line state a caller
// reads or writes through `Line*` lives in a side array indexed like the
// tags.  prefetch() warms both for an upcoming access on the host; it has
// no simulated effect.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>

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

  /// One 8-byte word per line.  Simulated times are non-negative, and 63
  /// bits hold any up to 2^62 ps (about 53 days).
  struct Line {
    Time ready_at : 63 = 0;
    bool dirty : 1 = false;
  };
  static_assert(sizeof(Line) == 8);

  /// Probe for the line containing `addr`; nullptr on miss.  A hit makes the
  /// line most recently used.
  Line* lookup(std::uint64_t addr);
  /// True if the line is present (no LRU update; used by the prefetcher).
  bool contains(std::uint64_t addr) const;

  struct Victim {
    bool evicted_dirty = false;
    std::uint64_t dirty_addr = 0;  ///< line address needing writeback
  };
  /// Install the line containing `addr` (evicting LRU if needed); the line
  /// becomes usable at `ready_at`.  Returns writeback info for the victim.
  /// Re-inserting a present line keeps the earlier `ready_at`, ORs in
  /// `dirty` and leaves the LRU order alone.
  Victim insert(std::uint64_t addr, Time ready_at, bool dirty);

  /// Host-only hint: start fetching the set block and line state an access
  /// to `addr` will read.  Changes no simulated state and no stats.
  void prefetch(std::uint64_t addr) const {
    const std::uint64_t set = set_of(addr >> line_shift_);
    const char* block = reinterpret_cast<const char*>(block_of(set));
    for (std::size_t b = 0; b < block_bytes_; b += kHostLine) {
      __builtin_prefetch(block + b);
    }
    const char* first = reinterpret_cast<const char*>(lines_of(set));
    const char* last = reinterpret_cast<const char*>(lines_of(set) + ways_);
    for (const char* p = first; p < last; p += kHostLine) {
      __builtin_prefetch(p);
    }
    __builtin_prefetch(last - 1);
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

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  std::uint64_t set_of(std::uint64_t line) const {
    return line & (num_sets_ - 1);
  }
  std::uint32_t tag_of(std::uint64_t line) const {
    const std::uint64_t tag = line >> set_shift_;
    EMUSIM_CHECK_MSG(tag <= UINT32_MAX, "address beyond the LLC tag range");
    return static_cast<std::uint32_t>(tag);
  }
  std::uint32_t* block_of(std::uint64_t set) const {
    return reinterpret_cast<std::uint32_t*>(base_ + set * block_bytes_);
  }
  static std::uint8_t* ranks(std::uint32_t* block, int ways) {
    return reinterpret_cast<std::uint8_t*>(block + ways);
  }
  Line* lines_of(std::uint64_t set) const {
    return lines_.get() + set * static_cast<std::uint64_t>(ways_);
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

  int ways_;
  int line_bytes_;
  int line_shift_;
  int set_shift_;
  std::uint64_t num_sets_;
  std::size_t block_bytes_;  ///< bytes per set block, whole host lines
  std::unique_ptr<char, FreeDeleter> blocks_;  ///< zeroed, unaligned
  char* base_;                                 ///< blocks_, host-line aligned
  std::unique_ptr<Line, FreeDeleter> lines_;   ///< num_sets_ * ways_
};

}  // namespace emusim::xeon
