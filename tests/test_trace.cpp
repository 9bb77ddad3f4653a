// Event tracer: recording, capacity, aggregations, and integration with the
// Emu machine (per-nodelet counts, migration matrices).
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "emu/counters.hpp"
#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"

namespace emusim {
namespace {

using sim::TraceKind;
using sim::Tracer;

TEST(Tracer, DisabledByDefaultAndFree) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record(0, TraceKind::mem_read, 1);
  EXPECT_TRUE(t.records().empty());
}

TEST(Tracer, RecordsInOrder) {
  Tracer t;
  t.enable();
  t.record(ns(5), TraceKind::mem_read, 2, -1, 8);
  t.record(ns(9), TraceKind::migrate_out, 2, 3);
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[0].t, ns(5));
  EXPECT_EQ(t.records()[0].arg, 8u);
  EXPECT_EQ(t.records()[1].b, 3);
}

TEST(Tracer, CapacityBoundsAndCountsDrops) {
  Tracer t;
  t.enable(/*capacity=*/10);
  for (int i = 0; i < 25; ++i) t.record(i, TraceKind::mem_read, 0);
  EXPECT_EQ(t.records().size(), 10u);
  EXPECT_EQ(t.dropped(), 15u);
  EXPECT_TRUE(t.truncated());
  // Capacity 0 retains nothing and counts every record as dropped.
  Tracer none;
  none.enable(/*capacity=*/0);
  for (int i = 0; i < 3; ++i) none.record(i, TraceKind::mem_read, 0);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.dropped(), 3u);
  EXPECT_TRUE(none.truncated());
}

TEST(Tracer, CountFiltersByKindAndEntity) {
  Tracer t;
  t.enable();
  t.record(0, TraceKind::mem_read, 1);
  t.record(0, TraceKind::mem_read, 2);
  t.record(0, TraceKind::mem_write, 1);
  EXPECT_EQ(t.count(TraceKind::mem_read), 2u);
  EXPECT_EQ(t.count(TraceKind::mem_read, 1), 1u);
  EXPECT_EQ(t.count(TraceKind::mem_write, 2), 0u);
}

TEST(Tracer, MigrationMatrix) {
  Tracer t;
  t.enable();
  t.record(0, TraceKind::migrate_out, 0, 1);
  t.record(0, TraceKind::migrate_out, 0, 1);
  t.record(0, TraceKind::migrate_out, 1, 0);
  const auto m = t.migration_matrix(2);
  EXPECT_EQ(m[0][1], 2u);
  EXPECT_EQ(m[1][0], 1u);
  EXPECT_EQ(m[0][0], 0u);
}

TEST(Tracer, TruncatedFlagDistinguishesFullFromOverflowed) {
  Tracer t;
  t.enable(/*capacity=*/4);
  for (int i = 0; i < 4; ++i) t.record(i, TraceKind::mem_read, 0);
  EXPECT_FALSE(t.truncated());  // exactly full is not truncated
  t.record(4, TraceKind::mem_read, 0);
  EXPECT_TRUE(t.truncated());
  EXPECT_EQ(t.dropped(), 1u);
  EXPECT_EQ(t.size(), 4u);
}

TEST(Tracer, RingModeKeepsNewestInTimeOrder) {
  Tracer t;
  t.enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) t.record(ns(i), TraceKind::mem_read, i);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_TRUE(t.truncated());
  // at() and for_each() present records oldest-to-newest even after the
  // write head wrapped mid-buffer.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.at(i).t, ns(6 + static_cast<long long>(i)));
    EXPECT_EQ(t.at(i).a, 6 + static_cast<int>(i));
  }
  std::vector<Time> seen;
  t.for_each([&](const sim::TraceRecord& r) { seen.push_back(r.t); });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), ns(6));
  EXPECT_EQ(seen.back(), ns(9));
}

TEST(Tracer, AggregatesAfterOverflowUseRetainedRecordsOnly) {
  // The ring keeps the newest records: aggregation must reflect exactly the
  // retained set and the truncated flag must warn the caller.
  Tracer ring;
  ring.enable(/*capacity=*/3);
  ring.record(0, TraceKind::migrate_out, 0, 1);  // overwritten
  ring.record(1, TraceKind::migrate_out, 1, 2);
  ring.record(2, TraceKind::migrate_out, 2, 3);
  ring.record(3, TraceKind::migrate_out, 3, 4);
  const auto m = ring.migration_matrix(8);
  EXPECT_EQ(m[0][1], 0u);
  EXPECT_EQ(m[1][2] + m[2][3] + m[3][4], 3u);
  EXPECT_TRUE(ring.truncated());
}

TEST(Tracer, MigrationMatrixCountsOutOfRangeIds) {
  Tracer t;
  t.enable();
  t.record(0, TraceKind::migrate_out, 0, 1);
  t.record(0, TraceKind::migrate_out, 7, 9);   // dst out of range for 8
  t.record(0, TraceKind::migrate_out, -1, 3);  // src out of range
  std::uint64_t oor = 0;
  const auto m = t.migration_matrix(8, &oor);
  EXPECT_EQ(m[0][1], 1u);
  EXPECT_EQ(oor, 2u);
}

// --- machine integration ---------------------------------------------------

sim::Op<> traced_workload(emu::Context& ctx,
                          emu::Striped1D<std::int64_t>* arr) {
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const int h = arr->home(i);
    if (h != ctx.nodelet()) co_await ctx.migrate_to(h);
    co_await ctx.read_local(arr->byte_addr(i), 8);
  }
}

TEST(TracerIntegration, MachineEventsMatchStats) {
  emu::Machine m(emu::SystemConfig::chick_hw());
  m.trace.enable();
  emu::Striped1D<std::int64_t> arr(m, 64);
  m.run_root([&](emu::Context& ctx) { return traced_workload(ctx, &arr); });

  EXPECT_EQ(m.trace.count(TraceKind::migrate_out), m.stats.migrations);
  EXPECT_EQ(m.trace.count(TraceKind::migrate_in), m.stats.migrations);
  EXPECT_EQ(m.trace.count(TraceKind::thread_spawn), m.stats.spawns);
  std::uint64_t reads = 0;
  for (int d = 0; d < m.num_nodelets(); ++d) {
    reads += m.nodelet(d).stats.reads;
    EXPECT_EQ(m.trace.count(TraceKind::mem_read, d),
              m.nodelet(d).stats.reads);
  }
  EXPECT_EQ(reads, 64u);
}

TEST(TracerIntegration, RoundRobinWalkMigrationMatrixIsCyclic) {
  emu::Machine m(emu::SystemConfig::chick_hw());
  m.trace.enable();
  emu::Striped1D<std::int64_t> arr(m, 64);
  m.run_root([&](emu::Context& ctx) { return traced_workload(ctx, &arr); });
  const auto mat = m.trace.migration_matrix(m.num_nodelets());
  // Element-striped walk: every migration goes to the next nodelet.
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      if (d == (s + 1) % 8) {
        EXPECT_GT(mat[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)],
                  0u);
      } else {
        EXPECT_EQ(mat[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)],
                  0u);
      }
    }
  }
}

TEST(TracerIntegration, MigrateInRecordsSourceNodeletAndThreadId) {
  emu::Machine m(emu::SystemConfig::chick_hw());
  m.trace.enable();
  emu::Striped1D<std::int64_t> arr(m, 64);
  m.run_root([&](emu::Context& ctx) { return traced_workload(ctx, &arr); });
  // Regression: migrate_in.b used to carry the *node* index (always 0 on a
  // single-node chick), losing the route.  It must be the source nodelet,
  // pairing with a migrate_out of the same thread id.
  std::uint64_t paired = 0;
  m.trace.for_each([&](const sim::TraceRecord& r) {
    if (r.kind != sim::TraceKind::migrate_in) return;
    EXPECT_GE(r.b, 0);
    EXPECT_LT(r.b, m.num_nodelets());
    EXPECT_EQ((r.b + 1) % m.num_nodelets(), r.a);  // round-robin walk
    EXPECT_GE(r.tid, 0);
    ++paired;
  });
  EXPECT_EQ(paired, m.stats.migrations);
}

TEST(Counters, ReportContainsPerNodeletRows) {
  emu::Machine m(emu::SystemConfig::chick_hw());
  emu::Striped1D<std::int64_t> arr(m, 64);
  const Time elapsed =
      m.run_root([&](emu::Context& ctx) { return traced_workload(ctx, &arr); });

  const auto counters = emu::collect_counters(m, elapsed);
  ASSERT_EQ(counters.size(), 8u);
  std::uint64_t reads = 0;
  for (const auto& c : counters) {
    reads += c.reads;
    EXPECT_LE(c.channel_utilization, 1.0);
  }
  EXPECT_EQ(reads, 64u);

  const auto report = emu::counters_report(m, elapsed);
  EXPECT_NE(report.find("chick_hw"), std::string::npos);
  EXPECT_NE(report.find("rowhit%"), std::string::npos);
}

}  // namespace
}  // namespace emusim
