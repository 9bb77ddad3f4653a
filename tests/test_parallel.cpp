// The higher-level parallel constructs: parallel_apply (cilk_for),
// remote_spawn_tree, on_each_nodelet, for_each_home, and SumReducer.
#include "emu/runtime/parallel.hpp"

#include <gtest/gtest.h>

#include <set>

namespace emusim::emu {
namespace {

sim::Op<> touch(Context& ctx, std::vector<int>* hits, std::size_t i) {
  ++(*hits)[i];
  co_await ctx.issue(5);
}

class ParallelApplyGrains : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelApplyGrains, VisitsEveryIndexExactlyOnce) {
  Machine m(SystemConfig::chick_hw());
  constexpr std::size_t kN = 500;
  std::vector<int> hits(kN, 0);
  const std::size_t grain = GetParam();
  m.run_root([&](Context& ctx) -> sim::Op<> {
    co_await parallel_apply(ctx, 0, kN, grain,
                            [&](Context& c, std::size_t i) {
                              return touch(c, &hits, i);
                            });
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Grains, ParallelApplyGrains,
                         ::testing::Values(1, 2, 7, 16, 100, 1000));

TEST(ParallelApply, EmptyAndSingletonRanges) {
  Machine m(SystemConfig::chick_hw());
  std::vector<int> hits(4, 0);
  m.run_root([&](Context& ctx) -> sim::Op<> {
    co_await parallel_apply(ctx, 2, 2, 8,
                            [&](Context& c, std::size_t i) {
                              return touch(c, &hits, i);
                            });
    co_await parallel_apply(ctx, 3, 4, 8,
                            [&](Context& c, std::size_t i) {
                              return touch(c, &hits, i);
                            });
  });
  EXPECT_EQ(hits, (std::vector<int>{0, 0, 0, 1}));
}

TEST(ParallelApply, ActuallyRunsConcurrently) {
  // With grain 1 and per-leaf issue work, total time must be far below the
  // serial sum.
  auto run = [](std::size_t grain) {
    Machine m(SystemConfig::chick_hw());
    std::vector<int> hits(256, 0);
    return m.run_root([&, grain](Context& ctx) -> sim::Op<> {
      co_await parallel_apply(ctx, 0, 256, grain,
                              [&](Context& c, std::size_t i) -> sim::Op<> {
                                ++hits[i];
                                co_await c.engine().sleep(us(10));
                              });
    });
  };
  EXPECT_LT(run(1), run(256) / 4);
}

// One remote_spawn_tree over [kTreeLo, kTreeLo + size) with a non-identity
// home map: per-leaf run counts and birth nodelets, plus the growth of
// stats.remote_spawns across the call.
constexpr int kTreeLo = 3;
int tree_home(int i) { return (i * 5 + 3) % 8; }

struct TreeRun {
  std::vector<int> hits;
  std::vector<int> born;
  std::uint64_t remote_spawns = 0;
};

TreeRun run_tree(int size) {
  Machine m(SystemConfig::chick_hw());
  const int hi = kTreeLo + size;
  TreeRun r{std::vector<int>(static_cast<std::size_t>(hi), 0),
            std::vector<int>(static_cast<std::size_t>(hi), -1), 0};
  m.run_root([&](Context& ctx) -> sim::Op<> {
    const std::uint64_t before = m.stats.remote_spawns;
    co_await remote_spawn_tree(
        ctx, kTreeLo, hi, tree_home, [&](Context& c, int i) -> sim::Op<> {
          ++r.hits[static_cast<std::size_t>(i)];
          r.born[static_cast<std::size_t>(i)] = c.nodelet();
          co_await c.issue(1);
        });
    r.remote_spawns = m.stats.remote_spawns - before;
  });
  return r;
}

TEST(RemoteSpawnTree, EveryLeafRunsOnceOnItsHome) {
  for (const int size : {1, 2, 3, 7, 64}) {
    const TreeRun r = run_tree(size);
    for (int i = 0; i < kTreeLo + size; ++i) {
      const auto k = static_cast<std::size_t>(i);
      EXPECT_EQ(r.hits[k], i < kTreeLo ? 0 : 1)
          << "size " << size << " leaf " << i;
      if (i >= kTreeLo) {
        EXPECT_EQ(r.born[k], tree_home(i)) << "size " << size << " leaf " << i;
      }
    }
  }
}

TEST(RemoteSpawnTree, OneRemoteSpawnPerLeaf) {
  // The root's child and every upper-half spawn each cross the fabric once.
  for (const int size : {1, 2, 3, 7, 64}) {
    EXPECT_EQ(run_tree(size).remote_spawns, static_cast<std::uint64_t>(size))
        << "size " << size;
  }
}

TEST(OnEachNodelet, RunsExactlyOncePerNodelet) {
  Machine m(SystemConfig::chick_hw());
  std::multiset<int> where;
  m.run_root([&](Context& ctx) -> sim::Op<> {
    co_await on_each_nodelet(ctx, [&](Context& c) -> sim::Op<> {
      where.insert(c.nodelet());
      co_await c.issue(1);
    });
  });
  ASSERT_EQ(where.size(), 8u);
  for (int d = 0; d < 8; ++d) EXPECT_EQ(where.count(d), 1u);
}

TEST(OnEachNodelet, WorksOn64Nodelets) {
  Machine m(SystemConfig::fullspeed_multinode(8));
  int count = 0;
  m.run_root([&](Context& ctx) -> sim::Op<> {
    co_await on_each_nodelet(ctx, [&](Context& c) -> sim::Op<> {
      ++count;
      co_await c.issue(1);
    });
  });
  EXPECT_EQ(count, 64);
}

TEST(ForEachHome, BodiesNeverMigrate) {
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> arr(m, 1000);
  for (std::size_t i = 0; i < arr.size(); ++i) arr[i] = 1;
  std::int64_t sum = 0;
  m.run_root([&](Context& ctx) -> sim::Op<> {
    co_await for_each_home(
        ctx, &arr, 16, [&](Context& c, std::size_t i) -> sim::Op<> {
          EXPECT_EQ(c.nodelet(), arr.home(i));
          co_await c.read_local(arr.byte_addr(i), 8);
          sum += arr[i];
        });
  });
  EXPECT_EQ(sum, 1000);
  EXPECT_EQ(m.stats.migrations, 0u);
}

TEST(SumReducer, LocalAddsAndGlobalReduce) {
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> arr(m, 512);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    arr[i] = static_cast<std::int64_t>(i);
  }
  SumReducer<std::int64_t> red(m);
  std::int64_t reduced = 0;
  m.run_root([&](Context& ctx) -> sim::Op<> {
    co_await for_each_home(ctx, &arr, 8,
                           [&](Context& c, std::size_t i) -> sim::Op<> {
                             co_await c.read_local(arr.byte_addr(i), 8);
                             red.add(c, arr[i]);
                           });
    reduced = co_await red.reduce(ctx);
  });
  EXPECT_EQ(reduced, 512 * 511 / 2);
  EXPECT_EQ(red.value_unsynchronized(), 512 * 511 / 2);
  // The reduce pass migrates at most once per nodelet (plus the hop home).
  EXPECT_LE(m.stats.migrations, 8u);
}

TEST(SumReducer, ReduceReturnsToCallingNodelet) {
  // Regression: reduce() used to strand the calling context on nodelet n-1
  // after the combine loop, so follow-on "local" operations were charged to
  // the wrong nodelet.
  Machine m(SystemConfig::chick_hw());
  SumReducer<std::int64_t> red(m);
  m.run_root([&](Context& ctx) -> sim::Op<> {
    co_await ctx.migrate_to(3);  // reduce from a non-zero home nodelet
    red.add(ctx, 7);
    const int home = ctx.nodelet();
    const std::int64_t total = co_await red.reduce(ctx);
    EXPECT_EQ(total, 7);
    EXPECT_EQ(ctx.nodelet(), home);
    // A local write after reduce lands on the home nodelet's channel.
    const auto before = m.nodelet(home).stats.writes;
    ctx.write_local(0, 8);
    EXPECT_EQ(m.nodelet(home).stats.writes, before + 1);
  });
}

}  // namespace
}  // namespace emusim::emu
