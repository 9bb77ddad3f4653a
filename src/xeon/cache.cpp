#include "xeon/cache.hpp"

#include <algorithm>
#include <bit>

namespace emusim::xeon {

SetAssocCache::SetAssocCache(std::size_t capacity_bytes, int ways,
                             int line_bytes)
    : ways_(ways), line_bytes_(line_bytes) {
  EMUSIM_CHECK(ways >= 1 && ways <= 255);
  EMUSIM_CHECK(line_bytes >= 8 && std::has_single_bit(
                                      static_cast<unsigned>(line_bytes)));
  const std::uint64_t total_lines =
      capacity_bytes / static_cast<std::size_t>(line_bytes);
  EMUSIM_CHECK(total_lines >= static_cast<std::uint64_t>(ways));
  num_sets_ = std::bit_floor(total_lines / static_cast<std::uint64_t>(ways));
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  set_shift_ = std::countr_zero(num_sets_);

  // u32 tags, u8 ranks and the u8 fill count, rounded up to host lines.
  const std::size_t raw = static_cast<std::size_t>(ways) * 5 + 1;
  block_bytes_ = (raw + kHostLine - 1) / kHostLine * kHostLine;
  // calloc: an all-zero block is an empty set, and untouched sets cost no
  // resident memory.
  blocks_.reset(static_cast<char*>(
      std::calloc(num_sets_ * block_bytes_ + kHostLine - 1, 1)));
  lines_.reset(static_cast<Line*>(std::calloc(
      num_sets_ * static_cast<std::uint64_t>(ways), sizeof(Line))));
  EMUSIM_CHECK(blocks_ != nullptr && lines_ != nullptr);
  const auto at = reinterpret_cast<std::uintptr_t>(blocks_.get());
  base_ = blocks_.get() + ((kHostLine - at % kHostLine) % kHostLine);
}

SetAssocCache::Line* SetAssocCache::lookup(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t set = set_of(line);
  std::uint32_t* tags = block_of(set);
  std::uint8_t* rank = ranks(tags, ways_);
  const int fill = rank[ways_];
  const int w = find(tags, fill, tag_of(line));
  if (w < 0) {
    ++stats.misses;
    return nullptr;
  }
  touch(rank, fill, w);
  ++stats.hits;
  return lines_of(set) + w;
}

bool SetAssocCache::contains(std::uint64_t addr) const {
  const std::uint64_t line = addr >> line_shift_;
  std::uint32_t* tags = block_of(set_of(line));
  return find(tags, ranks(tags, ways_)[ways_], tag_of(line)) >= 0;
}

SetAssocCache::Victim SetAssocCache::insert(std::uint64_t addr, Time ready_at,
                                            bool dirty) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t set = set_of(line);
  const std::uint32_t tag = tag_of(line);
  std::uint32_t* tags = block_of(set);
  std::uint8_t* rank = ranks(tags, ways_);
  int fill = rank[ways_];
  Line* state = lines_of(set);

  if (const int w = find(tags, fill, tag); w >= 0) {
    // Refresh an in-flight/present line; LRU order is unchanged.
    state[w].ready_at = std::min(state[w].ready_at, ready_at);
    state[w].dirty = state[w].dirty || dirty;
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
    if (state[w].dirty) {
      ++stats.writebacks;
      out.evicted_dirty = true;
      out.dirty_addr = ((static_cast<std::uint64_t>(tags[w]) << set_shift_) |
                        set)
                       << line_shift_;
    }
  }
  touch(rank, fill, w);
  tags[w] = tag;
  state[w] = Line{ready_at, dirty};
  return out;
}

}  // namespace emusim::xeon
