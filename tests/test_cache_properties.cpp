// Parameterized cache-model properties: capacity behaviour, associativity
// conflicts, in-flight ready_at semantics, and stats balance across
// configurations.
#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "xeon/cache.hpp"

namespace emusim::xeon {
namespace {

struct CacheCase {
  std::size_t capacity;
  int ways;
  int line;
};

class CacheProps : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheProps, SecondPassOverFittingWorkingSetHits) {
  const auto c = GetParam();
  SetAssocCache cache(c.capacity, c.ways, c.line);
  // Working set at half capacity: insert all, then every lookup must hit.
  const std::size_t lines = c.capacity / static_cast<std::size_t>(c.line) / 2;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::uint64_t addr = i * static_cast<std::uint64_t>(c.line);
    if (cache.lookup(addr) == nullptr) {
      cache.insert(addr, 0, false);
    }
  }
  cache.stats = CacheStats{};
  for (std::size_t i = 0; i < lines; ++i) {
    EXPECT_NE(cache.lookup(i * static_cast<std::uint64_t>(c.line)), nullptr);
  }
  EXPECT_DOUBLE_EQ(cache.stats.hit_rate(), 1.0);
}

TEST_P(CacheProps, OversizedWorkingSetMostlyMisses) {
  const auto c = GetParam();
  SetAssocCache cache(c.capacity, c.ways, c.line);
  // Working set at 4x capacity, two sequential passes: the second pass
  // still misses (LRU has evicted the front by the time we wrap).
  const std::size_t lines = c.capacity / static_cast<std::size_t>(c.line) * 4;
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) cache.stats = CacheStats{};
    for (std::size_t i = 0; i < lines; ++i) {
      const std::uint64_t addr = i * static_cast<std::uint64_t>(c.line);
      if (cache.lookup(addr) == nullptr) {
        cache.insert(addr, 0, false);
      }
    }
  }
  EXPECT_LT(cache.stats.hit_rate(), 0.01);
}

TEST_P(CacheProps, StatsBalance) {
  const auto c = GetParam();
  SetAssocCache cache(c.capacity, c.ways, c.line);
  sim::Rng rng(4);
  const std::uint64_t span = static_cast<std::uint64_t>(c.capacity) * 8;
  std::uint64_t inserts = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = rng.below(span);
    if (cache.lookup(addr) == nullptr) {
      cache.insert(addr, 0, rng.below(2) == 0);
      ++inserts;
    }
  }
  EXPECT_EQ(cache.stats.hits + cache.stats.misses, 20000u);
  EXPECT_EQ(cache.stats.misses, inserts);
  // Evictions can't exceed inserts, writebacks can't exceed evictions.
  EXPECT_LE(cache.stats.evictions, inserts);
  EXPECT_LE(cache.stats.writebacks, cache.stats.evictions);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheProps,
    ::testing::Values(CacheCase{1 << 16, 4, 64}, CacheCase{1 << 16, 16, 64},
                      CacheCase{1 << 20, 8, 64}, CacheCase{1 << 20, 20, 64},
                      CacheCase{1 << 18, 1, 64},  // direct-mapped
                      CacheCase{1 << 16, 8, 128}));

TEST(CacheConflicts, LowAssociativityThrashesOnSetStride) {
  // Addresses hitting one set: a working set of ways+1 lines always misses
  // under LRU, but fits easily in a higher-associativity cache.
  auto run = [](int ways) {
    SetAssocCache cache(64 * 1024, ways, 64);
    const std::uint64_t sets = 64ull * 1024 / 64 / static_cast<unsigned>(ways);
    std::uint64_t set_stride = sets * 64;
    cache.stats = CacheStats{};
    for (int round = 0; round < 50; ++round) {
      for (int k = 0; k < 17; ++k) {
        const std::uint64_t addr = static_cast<std::uint64_t>(k) * set_stride;
        if (cache.lookup(addr) == nullptr) cache.insert(addr, 0, false);
      }
    }
    return cache.stats.hit_rate();
  };
  EXPECT_LT(run(8), 0.05);    // 17 lines in an 8-way set: LRU thrash
  EXPECT_GT(run(32), 0.90);   // fits in a 32-way set
}

TEST(CacheInFlight, ReadyAtPropagatesToHits) {
  SetAssocCache cache(1 << 16, 8, 64);
  cache.insert(0x4000, us(5), false);
  const auto line = cache.lookup(0x4000);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(cache.usable(line, 0), us(5));
  // Re-inserting the same line keeps the earlier availability.
  cache.insert(0x4000, us(9), false);
  EXPECT_EQ(cache.usable(cache.lookup(0x4000), us(1)), us(5));
  // Once the data has arrived, a hit is usable at its own earliest time.
  EXPECT_EQ(cache.usable(cache.lookup(0x4000), us(6)), us(6));
}

TEST(CacheInFlight, ReinsertMergesDirtyBit) {
  SetAssocCache cache(1 << 16, 8, 64);
  cache.insert(0x8000, 0, false);
  cache.insert(0x8000, 0, true);  // e.g. a store joins an in-flight fill
  EXPECT_TRUE(cache.is_dirty(cache.lookup(0x8000)));
}

}  // namespace
}  // namespace emusim::xeon
