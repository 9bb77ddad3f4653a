// The windowed parallel engine (sim::EngineSet) and the machine-level
// determinism contract: the worker-thread count may change wall-clock
// behavior but never the simulation — timings, stats, and traces are
// byte-identical between serial and threaded runs.
#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "emu/machine.hpp"
#include "emu/runtime/global_array.hpp"
#include "emu/runtime/parallel.hpp"
#include "kernels/gups.hpp"

namespace emusim {
namespace {

using emu::Context;
using emu::Machine;
using emu::SystemConfig;

TEST(EngineSet, SingleShardDegeneratesToSerialRun) {
  sim::EngineSet set(1);
  std::vector<int> order;
  set.shard(0).call_at(us(1), [&order] { order.push_back(1); });
  set.shard(0).call_at(ns(10), [&order] { order.push_back(0); });
  // With one shard the thread count is irrelevant; this is Engine::run().
  const Time t = set.run(us(1), 8);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(t, us(1));
  EXPECT_EQ(set.shard(0).now(), us(1));
}

TEST(EngineSet, EmptySetFinishesAtTimeZero) {
  sim::EngineSet set(3);
  EXPECT_EQ(set.run(us(1), 2), 0);
}

/// Cross-shard messages drain in canonical order — per destination,
/// stable-sorted by timestamp with source-major tie order — regardless of
/// how many worker threads ran the windows.
std::vector<int> canonical_order_run(int threads) {
  constexpr std::size_t kShards = 4;
  const Time L = us(1);
  const Time t0 = ns(100);
  sim::EngineSet set(kShards);
  std::vector<int> order;
  for (std::size_t s = 1; s < kShards; ++s) {
    set.shard(s).call_at(t0, [&set, &order, s, L] {
      // Post the later-timestamped message first: the drain's stable sort
      // must still deliver the +L pair (source-major) before the +2L pair.
      set.post_call(s, 0, ns(100) + 2 * L,
                    sim::SmallFn([&order, s] { order.push_back(20 + static_cast<int>(s)); }));
      set.post_call(s, 0, ns(100) + L,
                    sim::SmallFn([&order, s] { order.push_back(10 + static_cast<int>(s)); }));
    });
  }
  set.run(L, threads);
  return order;
}

TEST(EngineSet, CanonicalCrossShardDrainOrder) {
  const std::vector<int> want = {11, 12, 13, 21, 22, 23};
  EXPECT_EQ(canonical_order_run(1), want);
  EXPECT_EQ(canonical_order_run(2), want);
  EXPECT_EQ(canonical_order_run(4), want);
  EXPECT_EQ(canonical_order_run(16), want);  // clamped to shard count
}

/// The window planner fast-forwards over event-free gaps: a chain of posts spaced
/// milliseconds apart under a microsecond lookahead opens a handful of
/// windows, not thousands of empty ones.
TEST(EngineSet, FlatWindowPlannerFastForwardsEmptyGaps) {
  auto run_chain = [](int threads) {
    sim::EngineSet set(3);
    std::vector<int> order;
    set.shard(0).call_at(ns(100), [&set, &order] {
      order.push_back(0);
      set.post_call(0, 1, ms(1),
                    sim::SmallFn([&set, &order] {
                      order.push_back(1);
                      set.post_call(1, 2, ms(2),
                                    sim::SmallFn([&order] { order.push_back(2); }));
                    }));
    });
    const Time t = set.run(us(1), threads);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(t, ms(2));
    // Fixed-width marching would need ~2000 windows to cover 2 ms at 1 us.
    EXPECT_LE(set.windows(), 5u);
    return set.windows();
  };
  const auto serial = run_chain(1);
  EXPECT_EQ(serial, run_chain(3));
}

/// The worker pool persists across run() invocations: a second run on the
/// same set (same thread count) reuses the parked threads and still drains
/// canonically.  Repeated under --gtest_repeat by the pool stress ctest
/// entry, which catches a rebuilt worker replaying an old epoch.
TEST(EngineSet, PersistentPoolReusedAcrossRuns) {
  sim::EngineSet set(4);
  std::vector<int> order;
  set.shard(0).call_at(ns(10), [&set, &order] {
    set.post_call(0, 2, us(2), sim::SmallFn([&order] { order.push_back(2); }));
  });
  set.run(us(1), 4);
  EXPECT_EQ(order, (std::vector<int>{2}));
  // Second run, later events: the pool wakes by epoch, barriers stay
  // phase-aligned, and the clocks keep advancing monotonically.
  const Time t1 = set.shard(0).now();
  set.shard(1).call_at(t1 + ns(10), [&set, &order, t1] {
    set.post_call(1, 3, t1 + us(2), sim::SmallFn([&order] { order.push_back(3); }));
  });
  const Time t2 = set.run(us(1), 4);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_GT(t2, t1);
  // A different thread count rebuilds the pool rather than misusing it.
  const Time t3 = set.shard(2).now();
  set.shard(2).call_at(t3 + ns(10), [&set, &order, t3] {
    set.post_call(2, 0, t3 + us(2), sim::SmallFn([&order] { order.push_back(0); }));
  });
  set.run(us(1), 2);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 0}));
}

/// A mixed multi-node workload touching every cross-shard path: remote
/// spawns, fetch-atomic round trips, fire-and-forget remote atomics,
/// remote writes, inter-node migrations, and cross-shard parent sync.
struct RunOut {
  Time elapsed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t internode = 0;
  std::uint64_t spawns = 0;
  std::uint64_t remote_spawns = 0;
  std::uint64_t completed = 0;
  std::uint64_t mig_count = 0;
  double mig_mean = 0.0;
  std::vector<sim::TraceRecord> trace;

  bool operator==(const RunOut& o) const {
    if (elapsed != o.elapsed || migrations != o.migrations ||
        internode != o.internode || spawns != o.spawns ||
        remote_spawns != o.remote_spawns || completed != o.completed ||
        mig_count != o.mig_count || mig_mean != o.mig_mean ||
        trace.size() != o.trace.size()) {
      return false;
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& a = trace[i];
      const auto& b = o.trace[i];
      if (a.t != b.t || a.kind != b.kind || a.a != b.a || a.b != b.b ||
          a.tid != b.tid || a.arg != b.arg) {
        return false;
      }
    }
    return true;
  }
};

RunOut run_mixed_workload(const SystemConfig& cfg, int threads) {
  const int prev = emu::set_engine_threads(threads);
  Machine m(cfg);
  m.trace.enable(1u << 16);
  const Time elapsed = m.run_root([&m](Context& ctx) -> sim::Op<> {
    const int n = m.num_nodelets();
    co_await emu::on_each_nodelet(ctx, [n](Context& c) -> sim::Op<> {
      const int here = c.nodelet();
      const int far = (here + n / 2) % n;
      co_await c.atomic_fetch_remote(far, 64);
      c.atomic_remote((here + 1) % n, 128);
      c.write_remote(far, 8, 256);
      co_await c.migrate_to(far);
      co_await c.issue(10);
      co_await c.migrate_to(here);
    });
  });
  RunOut o;
  o.elapsed = elapsed;
  o.migrations = m.stats.migrations;
  o.internode = m.stats.internode_migrations;
  o.spawns = m.stats.spawns;
  o.remote_spawns = m.stats.remote_spawns;
  o.completed = m.stats.threads_completed;
  o.mig_count = m.stats.migration_latency_ns.count();
  o.mig_mean = m.stats.migration_latency_ns.summary().mean();
  o.trace = m.trace.records();
  emu::set_engine_threads(prev);
  return o;
}

TEST(ShardedMachine, ThreadCountNeverChangesResults) {
  const SystemConfig cfg = SystemConfig::fullspeed_multinode(4);
  const RunOut serial = run_mixed_workload(cfg, 1);
  EXPECT_GT(serial.elapsed, 0);
  EXPECT_GT(serial.internode, 0u);
  EXPECT_FALSE(serial.trace.empty());
  EXPECT_TRUE(serial == run_mixed_workload(cfg, 2));
  EXPECT_TRUE(serial == run_mixed_workload(cfg, 3));
  EXPECT_TRUE(serial == run_mixed_workload(cfg, 4));
  EXPECT_TRUE(serial == run_mixed_workload(cfg, 64));
}

TEST(ShardedMachine, SingleNodeIgnoresEngineThreads) {
  const SystemConfig cfg = SystemConfig::chick_fullspeed();
  const RunOut serial = run_mixed_workload(cfg, 1);
  EXPECT_TRUE(serial == run_mixed_workload(cfg, 8));
}

TEST(ShardedMachine, CrossNodeSyncWaitsForAllChildren) {
  const SystemConfig cfg = SystemConfig::fullspeed_multinode(4);
  Machine m(cfg);
  const int nodelets = m.num_nodelets();
  std::vector<int> visited(static_cast<std::size_t>(nodelets), 0);
  m.run_root([&](Context& ctx) -> sim::Op<> {
    // One child per node card, plus checks that sync really joined them.
    for (int node = 0; node < m.cfg().nodes; ++node) {
      const int target = node * m.cfg().nodelets_per_node;
      co_await ctx.spawn_at(target, [&visited](Context& c) -> sim::Op<> {
        co_await c.issue(100);
        ++visited[static_cast<std::size_t>(c.nodelet())];
      });
    }
    co_await ctx.sync();
    EXPECT_EQ(ctx.live_children(), 0);
  });
  EXPECT_EQ(m.stats.threads_completed,
            static_cast<std::uint64_t>(m.cfg().nodes) + 1);  // children + root
  for (int node = 0; node < m.cfg().nodes; ++node) {
    EXPECT_EQ(visited[static_cast<std::size_t>(node * m.cfg().nodelets_per_node)],
              1);
  }
}

/// The histogram path exercises the apply-lambda remote atomics: the bin
/// increments execute on the owning shard at delivery, and the collective
/// still returns correct, thread-count-independent counts.
std::vector<std::uint64_t> run_histogram(const SystemConfig& cfg, int threads) {
  const int prev = emu::set_engine_threads(threads);
  std::vector<std::uint64_t> out;
  {
    Machine m(cfg);
    emu::GlobalArray<std::int64_t> a(m, 512);
    m.run_root([&](Context& ctx) -> sim::Op<> {
      co_await a.transform(ctx, [](std::size_t i, std::int64_t) {
        return static_cast<std::int64_t>(i % 16);
      });
      out = co_await a.histogram(ctx, 0, 16, 16);
    });
  }
  emu::set_engine_threads(prev);
  return out;
}

TEST(ShardedMachine, HistogramRemoteAtomicsAreExactAndDeterministic) {
  const SystemConfig cfg = SystemConfig::fullspeed_multinode(2);
  const auto serial = run_histogram(cfg, 1);
  ASSERT_EQ(serial.size(), 16u);
  for (const auto& count : serial) EXPECT_EQ(count, 512u / 16u);
  EXPECT_EQ(serial, run_histogram(cfg, 2));
}

TEST(ShardedMachine, GupsVerifiesAcrossNodesAndThreadCounts) {
  const SystemConfig cfg = SystemConfig::fullspeed_multinode(2);
  kernels::GupsParams p;
  p.table_words = 1u << 10;
  p.updates = 1u << 12;
  p.threads = 32;
  const int prev = emu::set_engine_threads(1);
  const auto serial = kernels::run_gups_emu(cfg, p);
  emu::set_engine_threads(2);
  const auto threaded = kernels::run_gups_emu(cfg, p);
  emu::set_engine_threads(prev);
  EXPECT_TRUE(serial.verified);
  EXPECT_TRUE(threaded.verified);
  EXPECT_EQ(serial.elapsed, threaded.elapsed);
  EXPECT_EQ(serial.migrations, threaded.migrations);
}

}  // namespace
}  // namespace emusim
