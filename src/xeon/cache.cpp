#include "xeon/cache.hpp"

#include <algorithm>
#include <bit>

#include <sys/mman.h>

namespace emusim::xeon {

SetAssocCache::SetAssocCache(std::size_t capacity_bytes, int ways,
                             int line_bytes)
    : ways_(ways),
      line_bytes_(line_bytes),
      flights_(kFlightSlots, Flight{kNoLine, 0}) {
  EMUSIM_CHECK(ways >= 1 && ways <= 255);
  EMUSIM_CHECK(line_bytes >= 8 && std::has_single_bit(
                                      static_cast<unsigned>(line_bytes)));
  const std::uint64_t total_lines =
      capacity_bytes / static_cast<std::size_t>(line_bytes);
  EMUSIM_CHECK(total_lines >= static_cast<std::uint64_t>(ways));
  num_sets_ = std::bit_floor(total_lines / static_cast<std::uint64_t>(ways));
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  set_shift_ = std::countr_zero(num_sets_);

  // u32 tags, u8 ranks, the u8 fill count and the dirty bitmap, then the
  // 8-byte ready bound, rounded up to host lines.
  const auto w = static_cast<std::size_t>(ways);
  bound_offset_ = (w * 5 + 1 + (w + 7) / 8 + 7) / 8 * 8;
  block_bytes_ = (bound_offset_ + sizeof(Time) + kHostLine - 1) / kHostLine *
                 kHostLine;
  // An anonymous mapping: an all-zero block is an empty set, untouched sets
  // cost no resident memory, and the footprint does not depend on the state
  // of the malloc heap.  (calloc serves the array from recycled heap once
  // malloc's adaptive mmap threshold has risen past it, and then zeroes —
  // and makes resident — all of it.)
  const std::size_t bytes = num_sets_ * block_bytes_;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  EMUSIM_CHECK(p != MAP_FAILED);
  blocks_ = std::unique_ptr<char, Unmap>(static_cast<char*>(p), Unmap{bytes});
}

void SetAssocCache::Unmap::operator()(char* p) const { munmap(p, bytes); }

SetAssocCache::Hit SetAssocCache::lookup(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  char* block = block_of(set_of(line));
  std::uint8_t* rank = ranks(block);
  const int fill = rank[ways_];
  const int w = find(tags(block), fill, tag_of(line));
  if (w < 0) {
    ++stats.misses;
    return {};
  }
  touch(rank, fill, w);
  ++stats.hits;
  return {block, w};
}

bool SetAssocCache::contains(std::uint64_t addr) const {
  const std::uint64_t line = addr >> line_shift_;
  char* block = block_of(set_of(line));
  return find(tags(block), ranks(block)[ways_], tag_of(line)) >= 0;
}

SetAssocCache::Victim SetAssocCache::insert(std::uint64_t addr, Time ready_at,
                                            bool dirty) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t set = set_of(line);
  const std::uint32_t tag = tag_of(line);
  char* block = block_of(set);
  std::uint32_t* way_tags = tags(block);
  std::uint8_t* rank = ranks(block);
  std::uint8_t* dirt = dirty_bits(block);
  int fill = rank[ways_];

  if (const int w = find(way_tags, fill, tag); w >= 0) {
    // Refresh an in-flight/present line; LRU order and the bound are
    // unchanged.  An entry already pruned stays ready.
    if (dirty) mark_dirty({block, w});
    Flight& f = flights_[flight_index(line)];
    if (f.line == line) f.ready_at = std::min(f.ready_at, ready_at);
    return {};
  }

  Victim out;
  int w;
  if (fill < ways_) {
    w = fill;  // the first invalid way; it enters at the bottom of the order
    rank[w] = static_cast<std::uint8_t>(fill);
    rank[ways_] = static_cast<std::uint8_t>(++fill);
  } else {
    w = static_cast<int>(std::find(rank, rank + ways_, ways_ - 1) - rank);
    ++stats.evictions;
    if (is_dirty({block, w})) {
      ++stats.writebacks;
      out.evicted_dirty = true;
      out.dirty_addr =
          ((static_cast<std::uint64_t>(way_tags[w]) << set_shift_) | set)
          << line_shift_;
    }
  }
  touch(rank, fill, w);
  way_tags[w] = tag;
  const auto bit = static_cast<std::uint8_t>(1u << (w & 7));
  dirt[w >> 3] = static_cast<std::uint8_t>(dirty ? dirt[w >> 3] | bit
                                                 : dirt[w >> 3] & ~bit);
  set_bound(block, std::max(bound(block), ready_at));

  std::size_t i = flight_index(line);
  if (flights_[i].line != line) {
    if (2 * (flight_count_ + 1) > flights_.size()) {
      prune_flights();
      i = flight_index(line);
    }
    ++flight_count_;
  }
  flights_[i] = Flight{line, ready_at};
  return out;
}

Time SetAssocCache::in_flight_ready_at(Hit hit) const {
  const auto set =
      static_cast<std::uint64_t>(hit.block_ - blocks_.get()) / block_bytes_;
  const std::uint64_t line =
      (static_cast<std::uint64_t>(tags(hit.block_)[hit.way_]) << set_shift_) |
      set;
  const Flight& f = flights_[flight_index(line)];
  return f.line == line ? f.ready_at : clock_;
}

std::size_t SetAssocCache::flight_home(std::uint64_t line) const {
  return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - std::countr_zero(flights_.size())));
}

std::size_t SetAssocCache::flight_index(std::uint64_t line) const {
  const std::size_t mask = flights_.size() - 1;
  std::size_t i = flight_home(line);
  while (flights_[i].line != line && flights_[i].line != kNoLine) {
    i = (i + 1) & mask;
  }
  return i;
}

void SetAssocCache::prune_flights() {
  // Scan once around the table from an empty slot (it is at most half
  // full), so no probe run crosses the scan's start.  Erasing slot i
  // back-shifts later entries of its run into the hole; they land at or
  // after i, so re-examining i before moving on visits each entry once.
  const std::size_t mask = flights_.size() - 1;
  std::size_t start = 0;
  while (flights_[start].line != kNoLine) ++start;
  for (std::size_t k = 1; k < flights_.size();) {
    const std::size_t i = (start + k) & mask;
    if (flights_[i].line == kNoLine || flights_[i].ready_at > clock_) {
      ++k;
      continue;
    }
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; flights_[j].line != kNoLine;
         j = (j + 1) & mask) {
      // The entry at j may fill the hole unless its home slot lies in
      // (hole, j]: then a probe from home would stop at the hole.
      const std::size_t home = flight_home(flights_[j].line);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        flights_[hole] = flights_[j];
        hole = j;
      }
    }
    flights_[hole].line = kNoLine;
    --flight_count_;
  }

  std::size_t slots = flights_.size();
  while (4 * (flight_count_ + 1) > slots) slots *= 2;
  if (slots == flights_.size()) return;
  std::vector<Flight> old(slots, Flight{kNoLine, 0});
  old.swap(flights_);
  for (const Flight& f : old) {
    if (f.line != kNoLine) flights_[flight_index(f.line)] = f;
  }
}

}  // namespace emusim::xeon
