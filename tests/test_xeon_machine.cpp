// Xeon machine model: cache behaviour, prefetcher, MLP limits, task pool,
// and end-to-end kernel calibration checks (STREAM peak, chase locality).
#include "xeon/machine.hpp"

#include <gtest/gtest.h>

#include "kernels/chase_common.hpp"
#include "kernels/chase_xeon.hpp"
#include "kernels/stream_xeon.hpp"
#include "xeon/cache.hpp"

namespace emusim::xeon {
namespace {

TEST(Cache, HitsAfterInsert) {
  SetAssocCache c(1 << 20, 8, 64);
  EXPECT_EQ(c.lookup(0x1000), nullptr);
  c.insert(0x1000, ns(10), false);
  const auto e = c.lookup(0x1000);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(c.usable(e, 0), ns(10));
  EXPECT_FALSE(c.is_dirty(e));
  // Same line, different offset.
  EXPECT_NE(c.lookup(0x1038), nullptr);
  // Different line.
  EXPECT_EQ(c.lookup(0x1040), nullptr);
}

TEST(Cache, LruEvictionWithinSet) {
  // 2-way cache: lines mapping to the same set evict the least recent.
  SetAssocCache c(64 * 2 * 4, 2, 64);  // 4 sets, 2 ways
  const std::uint64_t set_stride = 64 * 4;
  c.insert(0, 0, false);
  c.insert(set_stride, 0, false);
  EXPECT_NE(c.lookup(0), nullptr);  // touch line 0: line 1 becomes LRU
  c.insert(2 * set_stride, 0, false);
  EXPECT_NE(c.lookup(0), nullptr);
  EXPECT_EQ(c.lookup(set_stride), nullptr);  // evicted
  EXPECT_NE(c.lookup(2 * set_stride), nullptr);
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  SetAssocCache c(64 * 2 * 1, 2, 64);  // 1 set, 2 ways
  c.insert(0, 0, /*dirty=*/true);
  c.insert(64, 0, false);
  const auto v = c.insert(128, 0, false);
  EXPECT_TRUE(v.evicted_dirty);
  EXPECT_EQ(v.dirty_addr, 0u);
  EXPECT_EQ(c.stats.writebacks, 1u);
}

TEST(Cache, SandyBridgeHostFootprintIsSetBlocksPlusInFlightTable) {
  // 20 MiB, 20 ways, 64-B lines: 16384 sets of one 128-B block each (tags,
  // ranks, fill count, dirty bits, ready bound), plus the in-flight table's
  // initial 1024 slots of 16 B.  No per-line array beside the blocks.
  Machine m(SystemConfig::sandy_bridge());
  EXPECT_EQ(m.llc().host_bytes(), 16384u * 128u + 1024u * 16u);
}

TEST(Machine, AllocatorInterleavesChannels) {
  Machine m(SystemConfig::sandy_bridge());
  const auto interleave = m.cfg().channel_interleave_bytes;
  // Consecutive interleave-sized chunks land on consecutive channels.
  auto& ch0 = m.channel_of(0);
  auto& ch1 = m.channel_of(interleave);
  EXPECT_NE(&ch0, &ch1);
  auto& ch0b = m.channel_of(interleave * static_cast<std::uint64_t>(
                                m.cfg().channels));
  EXPECT_EQ(&ch0, &ch0b);
}

TEST(StreamXeon, ApproachesNominalBandwidth) {
  // Paper §IV-A: the Sandy Bridge reference achieves close to the nominal
  // 51.2 GB/s on STREAM.  Expect at least ~70% of nominal with all cores.
  kernels::StreamXeonParams p;
  p.n = 1u << 19;
  p.threads = 16;
  const auto r = kernels::run_stream_xeon(SystemConfig::sandy_bridge(), p);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.mb_per_sec, 0.70 * 51200.0);
  EXPECT_LT(r.mb_per_sec, 51200.0);  // cannot beat the bus
}

TEST(StreamXeon, ScalesWithThreads) {
  kernels::StreamXeonParams p1, p8;
  p1.n = p8.n = 1u << 18;
  p1.threads = 1;
  p8.threads = 8;
  const auto r1 = kernels::run_stream_xeon(SystemConfig::sandy_bridge(), p1);
  const auto r8 = kernels::run_stream_xeon(SystemConfig::sandy_bridge(), p8);
  EXPECT_GT(r8.mb_per_sec, 2.5 * r1.mb_per_sec);
}

TEST(ChaseXeon, LocalitySensitivity) {
  // The Xeon must be strongly sensitive to block size (unlike the Emu):
  // mid-size blocks beat block=1 by a large factor.  Shrink the LLC so a
  // test-sized list is DRAM-resident, as the paper's lists are.
  auto cfg = SystemConfig::sandy_bridge();
  cfg.llc_bytes = 1 << 20;
  kernels::ChaseXeonParams p;
  p.n = 1u << 18;  // keep the test fast; shape still holds
  p.threads = 8;
  p.mode = kernels::ShuffleMode::full_block_shuffle;

  p.block = 1;
  const auto worst = kernels::run_chase_xeon(cfg, p);
  p.block = 512;
  const auto best = kernels::run_chase_xeon(cfg, p);
  EXPECT_TRUE(worst.verified);
  EXPECT_TRUE(best.verified);
  EXPECT_GT(best.mb_per_sec, 2.0 * worst.mb_per_sec);
}

TEST(ChaseXeon, SequentialBeatsRandomViaPrefetch) {
  auto cfg = SystemConfig::sandy_bridge();
  cfg.llc_bytes = 1 << 20;  // DRAM-resident list (see above)
  kernels::ChaseXeonParams p;
  p.n = 1u << 18;
  p.threads = 4;
  p.block = p.n / 4;  // one big ordered block per thread
  p.mode = kernels::ShuffleMode::none;
  const auto seq = kernels::run_chase_xeon(cfg, p);

  p.block = 16;
  p.mode = kernels::ShuffleMode::full_block_shuffle;
  const auto rnd = kernels::run_chase_xeon(cfg, p);
  EXPECT_GT(seq.mb_per_sec, 1.5 * rnd.mb_per_sec);
}

// A fixed chase over a 16-B-element list, one worker per core.  Each
// element is one load and one compute step.
sim::Op<> walk_chain(CpuContext& ctx, const kernels::ChaseList* list,
                     std::uint64_t base, int t) {
  for (std::uint64_t idx = list->head[static_cast<std::size_t>(t)];
       idx != kernels::kChaseEnd; idx = list->next[idx]) {
    co_await ctx.load(base + idx * sizeof(kernels::ChaseElement));
    co_await ctx.compute(kernels::kChaseXeonCyclesPerElement);
  }
}

TEST(XeonWorkCount, DemandMissCostsTheSameEventsAsAHit) {
  // A demand miss releases its fill buffer and resumes the load in one
  // event, so every element costs exactly two events — its load
  // completion and its compute step — whether the load hits or misses.
  // Start-up costs no events: workers start synchronously and the pool
  // charges no per-task overhead here.
  constexpr std::size_t kElements = 2048;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kStartupEvents = 0;
  const auto list = kernels::build_chase_list(
      kElements, 1, kThreads, kernels::ShuffleMode::full_block_shuffle, 3);
  Machine m(SystemConfig::sandy_bridge());
  const std::uint64_t base =
      m.allocate(kElements * sizeof(kernels::ChaseElement));
  std::vector<TaskFn> tasks;
  for (int t = 0; t < kThreads; ++t) {
    tasks.push_back([&list, base, t](CpuContext& ctx) {
      return walk_chain(ctx, &list, base, t);
    });
  }
  run_task_pool(m, kThreads, std::move(tasks), 0);

  EXPECT_EQ(m.stats.loads, kElements);
  // Both paths are exercised: 4 elements share a line, in shuffled order.
  EXPECT_GT(m.stats.demand_misses, 0u);
  EXPECT_GT(m.llc().stats.hits, 0u);
  EXPECT_EQ(m.engine().events_processed(), 2 * kElements + kStartupEvents);
}

TEST(TaskPool, RunsAllTasksAndBalances) {
  Machine m(SystemConfig::sandy_bridge());
  int done = 0;
  std::vector<TaskFn> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&done](CpuContext& ctx) -> sim::Op<> {
      ++done;
      co_await ctx.compute(1000);
    });
  }
  const Time elapsed = run_task_pool(m, 4, std::move(tasks), 0);
  EXPECT_EQ(done, 100);
  EXPECT_EQ(m.stats.tasks_run, 100u);
  // 100 tasks x 1000 cycles over 4 workers ~ 25000 cycles.
  const Time ideal = 25000 * m.cfg().cycle();
  EXPECT_NEAR(static_cast<double>(elapsed), static_cast<double>(ideal),
              0.05 * static_cast<double>(ideal));
}

TEST(TaskPool, PerTaskOverheadSlowsManySmallTasks) {
  auto run = [](int ntasks, int overhead) {
    Machine m(SystemConfig::sandy_bridge());
    std::vector<TaskFn> tasks;
    const int work_per_task = 100000 / ntasks;
    for (int i = 0; i < ntasks; ++i) {
      tasks.push_back([work_per_task](CpuContext& ctx) -> sim::Op<> {
        co_await ctx.compute(static_cast<std::uint64_t>(work_per_task));
      });
    }
    return run_task_pool(m, 4, std::move(tasks), overhead);
  };
  // Same total work, same overhead rate: fine-grained tasks pay more.
  EXPECT_GT(run(1000, 600), run(10, 600));
}

}  // namespace
}  // namespace emusim::xeon
