// Differential test of the LLC against a reference model.
//
// The reference keeps each set as an explicit LRU stack — a list ordered
// from most to least recently used (Mattson, Gecsei, Slutz and Traiger,
// "Evaluation techniques for storage hierarchies", IBM Systems Journal
// 1970) — and stores every line's ready_at and dirty bit beside it.  A hit
// `lookup` moves the line to the top; `insert` of an absent line pushes it
// on top and, when the set is full, evicts the bottom; `contains` and a
// re-`insert` of a present line leave the order alone.  Randomised traces
// drive SetAssocCache and the reference side by side under a non-decreasing
// `earliest` clock and compare every hit, every usable time against
// max(earliest, ready_at), every dirty bit and victim, the final counters
// and the final LRU order.  Targeted traces push the cache's in-flight table
// through growth, pruning after idle gaps, and eviction while in flight.
#include <algorithm>
#include <cstdint>
#include <iterator>
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

/// Drives the cache and the model side by side and compares every result.
/// `earliest` is the probe clock, which only moves forward.
struct Pair {
  Pair(std::size_t capacity, int ways, int line)
      : cache(capacity, ways, line), model(capacity, ways, line) {}

  /// A demand probe at `earliest`; a hit that is a store marks the line
  /// dirty.  Returns whether it hit; `usable` holds a hit's usable time.
  bool lookup(std::uint64_t addr, Time earliest, bool store) {
    const auto got = cache.lookup(addr);
    auto* want = model.lookup(addr);
    EXPECT_EQ(got != nullptr, want != nullptr);
    if (want == nullptr || got == nullptr) {
      cache.advance(earliest);  // as the machine does on a miss
      return false;
    }
    usable = cache.usable(got, earliest);
    EXPECT_EQ(usable, std::max(earliest, want->ready_at));
    EXPECT_EQ(cache.is_dirty(got), want->dirty);
    if (store) {
      cache.mark_dirty(got);
      want->dirty = true;
    }
    return true;
  }

  bool insert(std::uint64_t addr, Time ready_at, bool dirty) {
    const auto gv = cache.insert(addr, ready_at, dirty);
    const auto wv = model.insert(addr, ready_at, dirty);
    EXPECT_EQ(gv.evicted_dirty, wv.evicted_dirty);
    EXPECT_EQ(gv.dirty_addr, wv.dirty_addr);
    return wv.evicted_dirty;
  }

  void expect_same_stats() const {
    EXPECT_EQ(cache.stats.hits, model.stats.hits);
    EXPECT_EQ(cache.stats.misses, model.stats.misses);
    EXPECT_EQ(cache.stats.evictions, model.stats.evictions);
    EXPECT_EQ(cache.stats.writebacks, model.stats.writebacks);
  }

  SetAssocCache cache;
  LruStackModel model;
  Time usable = 0;
};

// The parameter is plain numbers.  gtest prints its bytes into each listed
// test name, so a name pointer here would put an address-randomised value
// into the names and change them on every build; the names live in a
// parallel table instead.
struct Geometry {
  std::size_t capacity;
  int ways;
  int line;
  std::uint64_t seed;  ///< of the random trace
};

constexpr Geometry geometry(std::size_t capacity, int ways, int line) {
  return {capacity, ways, line,
          0x5eed ^ static_cast<std::uint64_t>(ways * 131 + line)};
}

constexpr Geometry kGeometries[] = {
    geometry(1 << 14, 1, 64),
    geometry(1 << 14, 2, 64),
    geometry(20 * 64 * 64, 20, 64),
    geometry(7 * 64 * 16, 7, 64),
    geometry(1 << 15, 8, 128),
    // 12 sets' worth of capacity: the set count rounds down to 8.
    geometry(4 * 64 * 12, 4, 64),
    geometry(255 * 64, 255, 64),
};
constexpr const char* kGeometryNames[] = {
    "direct_mapped", "two_way",          "twenty_way",
    "seven_way",     "line128",          "rounded_capacity",
    "fully_associative_255",
};
static_assert(std::size(kGeometries) == std::size(kGeometryNames));

std::string geometry_name(const ::testing::TestParamInfo<Geometry>& info) {
  return kGeometryNames[info.index];
}

class CacheOracle : public ::testing::TestWithParam<Geometry> {};

constexpr int kOps = 120000;

TEST_P(CacheOracle, RandomTraceMatchesLruStack) {
  const Geometry g = GetParam();
  Pair p(g.capacity, g.ways, g.line);
  SetAssocCache& cache = p.cache;
  LruStackModel& model = p.model;
  const std::uint64_t line = static_cast<std::uint64_t>(g.line);
  const std::uint64_t lines =
      model.num_sets() * static_cast<std::uint64_t>(g.ways);

  sim::Rng rng(g.seed);
  std::vector<std::uint64_t> recent(16, 0);
  std::uint64_t lookup_hits = 0, victims_dirty = 0, hits_in_flight = 0;
  Time now = 0;

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
    // The clock creeps forward, with a rare long idle gap that leaves every
    // line ready and lets the in-flight table prune.  Fills land near or
    // far in the future, and a few in the past.
    now += static_cast<Time>(rng.below(200));
    if (rng.below(4000) == 0) now += 100000000;
    const Time ready = rng.below(2) == 0
                           ? now + static_cast<Time>(rng.below(1000000))
                           : std::max<Time>(0, now - 500 + static_cast<Time>(
                                                      rng.below(3000)));
    const bool dirty = rng.below(3) == 0;

    std::ostringstream where;
    where << "op " << op << " addr " << addr;
    SCOPED_TRACE(where.str());

    const std::uint64_t kind = rng.below(10);
    if (kind < 5) {
      const bool hit = p.lookup(addr, now, dirty);
      ASSERT_FALSE(::testing::Test::HasFailure());
      if (hit) {
        ++lookup_hits;
        hits_in_flight += p.usable > now;
      } else if (rng.below(5) != 0) {
        // The usual miss path: fill the line that just missed.
        victims_dirty += p.insert(addr, ready, dirty);
      }
    } else if (kind < 7) {
      ASSERT_EQ(cache.contains(addr), model.contains(addr));
    } else {
      victims_dirty += p.insert(addr, ready, dirty);
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
    ASSERT_EQ(cache.line_addr(addr), addr - addr % line);
  }

  p.expect_same_stats();
  // The trace must have exercised hits, in-flight hits, misses and dirty
  // evictions.
  EXPECT_GT(lookup_hits, 0u);
  EXPECT_GT(hits_in_flight, 0u);
  EXPECT_GT(model.stats.misses, 0u);
  EXPECT_GT(victims_dirty, 0u);

  // Final contents: every line the model holds is present, and each set's
  // LRU order matches — refilling a set with fresh lines must evict the
  // model's stack from the bottom up.
  for (std::uint64_t s = 0; s < model.num_sets(); ++s) {
    const auto stack = model.sets_[s];  // copy: the probes below mutate
    for (const auto& e : stack) {
      ASSERT_TRUE(cache.contains(e.line * line));
    }
    for (std::size_t k = stack.size(); k-- > 0;) {
      // A line far beyond every traced address, mapping to set `s`.
      const std::uint64_t fresh =
          (lines * 8 + k + 1) * model.num_sets() + s;
      p.insert(fresh * line, 0, false);
      ASSERT_FALSE(::testing::Test::HasFailure()) << "set " << s;
      if (stack.size() == static_cast<std::size_t>(g.ways)) {
        ASSERT_FALSE(cache.contains(stack[k].line * line)) << "set " << s;
      }
    }
  }
  EXPECT_EQ(cache.stats.evictions, model.stats.evictions);
  EXPECT_EQ(cache.stats.writebacks, model.stats.writebacks);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheOracle,
                         ::testing::ValuesIn(kGeometries), geometry_name);

TEST(CacheOracleInFlight, ManyLinesInFlightGrowTheTableAndPruneAfterIdle) {
  // 512 sets of 20 ways; 6000 lines spread over them fit without eviction.
  constexpr int kWays = 20;
  constexpr std::uint64_t kSets = 512;
  constexpr std::uint64_t kLines = 6000;
  Pair p(kSets * kWays * 64, kWays, 64);
  const std::size_t empty_bytes = p.cache.host_bytes();
  EXPECT_EQ(empty_bytes, kSets * 128 + 1024 * 16);

  sim::Rng rng(42);
  Time now = 1000;
  // Every line is in flight at once, each with its own arrival time.
  for (std::uint64_t k = 0; k < kLines; ++k) {
    p.insert(k * 64, now + 1 + static_cast<Time>(rng.below(1000000)),
             rng.below(2) == 0);
  }
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_GT(p.cache.host_bytes(), empty_bytes);  // the table grew
  // Probe them all in a random order while the clock creeps forward: some
  // are ready by now, most are not.
  for (int i = 0; i < 20000; ++i) {
    now += static_cast<Time>(rng.below(40));
    p.lookup(rng.below(kLines) * 64, now, rng.below(4) == 0);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "probe " << i;
  }
  // A new burst of fills prunes the ready entries and keeps the rest.
  for (std::uint64_t k = kLines; k < 2 * kLines; ++k) {
    p.insert(k * 64, now + static_cast<Time>(rng.below(1000000)), false);
    p.lookup(rng.below(k) * 64, now, false);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "line " << k;
  }
  // After a long idle gap every line is ready; the next burst of fills
  // prunes the whole table.
  now += 1000000000;
  for (std::uint64_t k = 0; k < 2 * kLines; ++k) {
    p.lookup(k * 64, now, false);
    p.insert((2 * kLines + k) * 64, now + 5, true);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "line " << k;
  }
  for (std::uint64_t k = 0; k < 4 * kLines; ++k) {
    p.lookup(k * 64, now + 1, false);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "line " << k;
  }
  p.expect_same_stats();
}

TEST(CacheOracleInFlight, LineEvictedInFlightIsExactWhenReinserted) {
  // One set of two ways: A goes in flight and is evicted before it lands.
  for (const Time again : {Time{300}, Time{5000}}) {
    SCOPED_TRACE(again);
    Pair p(2 * 64, 2, 64);
    p.insert(0, 1000, false);   // A, in flight until 1000
    p.insert(64, 2000, true);   // B
    p.insert(128, 10, false);   // C evicts A, the LRU line
    EXPECT_FALSE(p.cache.contains(0));
    // A returns with a new arrival time, earlier or later than the stale
    // one the table may still hold: the new time is exact either way.
    p.insert(0, again, false);
    p.lookup(0, 100, false);
    p.lookup(0, 200, false);
    p.lookup(64, 200, false);
    p.lookup(0, 900, false);
    p.lookup(0, 1500, false);
    p.lookup(0, 6000, false);
    p.expect_same_stats();
  }
}

TEST(CacheOracleInFlight, MissOnlyTraceKeepsTheTableSmall) {
  // Nothing ever hits, so only advance() moves the clock.  Each fill lands
  // ten probes after it is issued; landed fills are pruned, so the table
  // keeps its initial 1024 slots (the prune buffer holds at most a quarter
  // of them).
  SetAssocCache cache(1 << 16, 8, 64);
  const std::size_t empty_bytes = cache.host_bytes();
  Time now = 0;
  for (std::uint64_t k = 0; k < 100000; ++k) {
    now += 10;
    ASSERT_EQ(cache.lookup(k * 64), nullptr);
    cache.advance(now);
    cache.insert(k * 64, now + 100, false);
  }
  EXPECT_LE(cache.host_bytes(), empty_bytes + 256 * 16);
}

TEST(CacheOracleInFlight, EarliestMustNotDecrease) {
  SetAssocCache cache(1 << 14, 4, 64);
  cache.insert(0, 100, false);
  const auto hit = cache.lookup(0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(cache.usable(hit, 50), 100);
  EXPECT_EQ(cache.usable(hit, 50), 100);  // an equal time is fine
  cache.advance(60);
  EXPECT_EQ(cache.usable(hit, 60), 100);
  EXPECT_DEATH(cache.usable(hit, 59), "LLC probe time went backwards");
  EXPECT_DEATH(cache.advance(59), "LLC probe time went backwards");
}

}  // namespace
}  // namespace emusim::xeon
