// Differential test of the LLC against a reference model.
//
// The reference keeps each set as an explicit LRU stack — a list ordered
// from most to least recently used (Mattson, Gecsei, Slutz and Traiger,
// "Evaluation techniques for storage hierarchies", IBM Systems Journal
// 1970).  A hit `lookup` moves the line to the top; `insert` of an absent
// line pushes it on top and, when the set is full, evicts the bottom;
// `contains` and a re-`insert` of a present line leave the order alone.
// Randomised traces drive SetAssocCache and the reference side by side and
// compare every hit, every line's ready_at and dirty bit, every victim and
// the final counters.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "xeon/cache.hpp"

namespace emusim::xeon {
namespace {

class LruStackModel {
 public:
  struct Entry {
    std::uint64_t line;  ///< line number (address / line_bytes)
    Time ready_at;
    bool dirty;
  };

  LruStackModel(std::size_t capacity_bytes, int ways, int line_bytes)
      : ways_(static_cast<std::size_t>(ways)),
        line_bytes_(static_cast<std::uint64_t>(line_bytes)) {
    const std::uint64_t per_way = capacity_bytes / line_bytes_ / ways_;
    num_sets_ = 1;
    while (num_sets_ * 2 <= per_way) num_sets_ *= 2;
    sets_.resize(num_sets_);
  }

  std::uint64_t num_sets() const { return num_sets_; }

  Entry* lookup(std::uint64_t addr) {
    auto& s = set(addr);
    const auto it = find(s, addr);
    if (it == s.end()) {
      ++stats.misses;
      return nullptr;
    }
    ++stats.hits;
    std::rotate(s.begin(), it, it + 1);  // to the top of the stack
    return &s.front();
  }

  bool contains(std::uint64_t addr) {
    auto& s = set(addr);
    return find(s, addr) != s.end();
  }

  SetAssocCache::Victim insert(std::uint64_t addr, Time ready_at,
                               bool dirty) {
    auto& s = set(addr);
    const auto it = find(s, addr);
    if (it != s.end()) {
      it->ready_at = std::min(it->ready_at, ready_at);
      it->dirty = it->dirty || dirty;
      return {};
    }
    SetAssocCache::Victim out;
    if (s.size() == ways_) {
      const Entry& lru = s.back();
      ++stats.evictions;
      if (lru.dirty) {
        ++stats.writebacks;
        out.evicted_dirty = true;
        out.dirty_addr = lru.line * line_bytes_;
      }
      s.pop_back();
    }
    s.insert(s.begin(), Entry{addr / line_bytes_, ready_at, dirty});
    return out;
  }

  CacheStats stats;
  std::vector<std::vector<Entry>> sets_;

 private:
  std::vector<Entry>& set(std::uint64_t addr) {
    return sets_[(addr / line_bytes_) & (num_sets_ - 1)];
  }
  std::vector<Entry>::iterator find(std::vector<Entry>& s,
                                    std::uint64_t addr) {
    const std::uint64_t line = addr / line_bytes_;
    return std::find_if(s.begin(), s.end(),
                        [line](const Entry& e) { return e.line == line; });
  }

  std::size_t ways_;
  std::uint64_t line_bytes_;
  std::uint64_t num_sets_ = 1;
};

struct Geometry {
  const char* name;
  std::size_t capacity;
  int ways;
  int line;
};

std::string geometry_name(const ::testing::TestParamInfo<Geometry>& info) {
  return info.param.name;
}

class CacheOracle : public ::testing::TestWithParam<Geometry> {};

constexpr int kOps = 120000;

TEST_P(CacheOracle, RandomTraceMatchesLruStack) {
  const Geometry g = GetParam();
  SetAssocCache cache(g.capacity, g.ways, g.line);
  LruStackModel model(g.capacity, g.ways, g.line);
  const std::uint64_t line = static_cast<std::uint64_t>(g.line);
  const std::uint64_t lines =
      model.num_sets() * static_cast<std::uint64_t>(g.ways);

  sim::Rng rng(0x5eed ^ static_cast<std::uint64_t>(g.ways * 131 + g.line));
  std::vector<std::uint64_t> recent(16, 0);
  std::uint64_t lookup_hits = 0, victims_dirty = 0;

  for (int op = 0; op < kOps; ++op) {
    // Mostly a working set near capacity (plenty of hits and LRU
    // decisions), some far addresses (conflict evictions), some reuse.
    std::uint64_t ln;
    const std::uint64_t pick = rng.below(10);
    if (pick < 6) {
      ln = rng.below(lines + lines / 2 + 1);
    } else if (pick < 9) {
      ln = rng.below(lines * 4);
    } else {
      ln = recent[rng.below(recent.size())];
    }
    recent[static_cast<std::size_t>(op) % recent.size()] = ln;
    const std::uint64_t addr = ln * line + rng.below(line);
    const Time ready = static_cast<Time>(rng.below(1000000));
    const bool dirty = rng.below(3) == 0;

    std::ostringstream where;
    where << g.name << " op " << op << " addr " << addr;
    SCOPED_TRACE(where.str());

    const std::uint64_t kind = rng.below(10);
    if (kind < 5) {
      auto* got = cache.lookup(addr);
      auto* want = model.lookup(addr);
      ASSERT_EQ(got != nullptr, want != nullptr);
      if (want != nullptr) {
        ++lookup_hits;
        ASSERT_EQ(got->ready_at, want->ready_at);
        ASSERT_EQ(got->dirty, want->dirty);
        // A store hit marks the line dirty through the returned pointer.
        if (dirty) got->dirty = want->dirty = true;
      } else if (rng.below(5) != 0) {
        // The usual miss path: fill the line that just missed.
        const auto gv = cache.insert(addr, ready, dirty);
        const auto wv = model.insert(addr, ready, dirty);
        ASSERT_EQ(gv.evicted_dirty, wv.evicted_dirty);
        ASSERT_EQ(gv.dirty_addr, wv.dirty_addr);
        victims_dirty += wv.evicted_dirty;
      }
    } else if (kind < 7) {
      ASSERT_EQ(cache.contains(addr), model.contains(addr));
    } else {
      const auto gv = cache.insert(addr, ready, dirty);
      const auto wv = model.insert(addr, ready, dirty);
      ASSERT_EQ(gv.evicted_dirty, wv.evicted_dirty);
      ASSERT_EQ(gv.dirty_addr, wv.dirty_addr);
      victims_dirty += wv.evicted_dirty;
    }
    ASSERT_EQ(cache.line_addr(addr), addr - addr % line);
  }

  EXPECT_EQ(cache.stats.hits, model.stats.hits);
  EXPECT_EQ(cache.stats.misses, model.stats.misses);
  EXPECT_EQ(cache.stats.evictions, model.stats.evictions);
  EXPECT_EQ(cache.stats.writebacks, model.stats.writebacks);
  // The trace must have exercised hits, misses and dirty evictions.
  EXPECT_GT(lookup_hits, 0u);
  EXPECT_GT(model.stats.misses, 0u);
  EXPECT_GT(victims_dirty, 0u);

  // Final contents: every line the model holds is present with the same
  // state, and each set's LRU order matches — refilling a set with fresh
  // lines must evict the model's stack from the bottom up.
  for (std::uint64_t s = 0; s < model.num_sets(); ++s) {
    const auto stack = model.sets_[s];  // copy: the probes below mutate
    for (const auto& e : stack) {
      ASSERT_TRUE(cache.contains(e.line * line));
    }
    for (std::size_t k = stack.size(); k-- > 0;) {
      // A line far beyond every traced address, mapping to set `s`.
      const std::uint64_t fresh =
          (lines * 8 + k + 1) * model.num_sets() + s;
      const auto gv = cache.insert(fresh * line, 0, false);
      const auto wv = model.insert(fresh * line, 0, false);
      ASSERT_EQ(gv.evicted_dirty, wv.evicted_dirty) << "set " << s;
      ASSERT_EQ(gv.dirty_addr, wv.dirty_addr) << "set " << s;
      if (stack.size() == static_cast<std::size_t>(g.ways)) {
        ASSERT_FALSE(cache.contains(stack[k].line * line)) << "set " << s;
      }
    }
  }
  EXPECT_EQ(cache.stats.evictions, model.stats.evictions);
  EXPECT_EQ(cache.stats.writebacks, model.stats.writebacks);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Values(
        Geometry{"direct_mapped", 1 << 14, 1, 64},
        Geometry{"two_way", 1 << 14, 2, 64},
        Geometry{"twenty_way", 20 * 64 * 64, 20, 64},
        Geometry{"seven_way", 7 * 64 * 16, 7, 64},
        Geometry{"line128", 1 << 15, 8, 128},
        // 12 sets' worth of capacity: the set count rounds down to 8.
        Geometry{"rounded_capacity", 4 * 64 * 12, 4, 64},
        Geometry{"fully_associative_255", 255 * 64, 255, 64}),
    geometry_name);

}  // namespace
}  // namespace emusim::xeon
