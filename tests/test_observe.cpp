// Observability layer: Perfetto export roundtrip, phase-scoped counter
// deltas, the machine-lifecycle observer, and the truncation-reporting
// guarantees from docs/OBSERVABILITY.md.
#include "report/observe.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "emu/counters.hpp"
#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"
#include "report/json.hpp"

namespace emusim {
namespace {

using report::Json;

sim::Op<> striped_walk(emu::Context& ctx, emu::Striped1D<std::int64_t>* arr) {
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const int h = arr->home(i);
    if (h != ctx.nodelet()) co_await ctx.migrate_to(h);
    co_await ctx.read_local(arr->byte_addr(i), 8);
  }
}

/// Write-to-temp helper: unique per test to keep ctest -j runs independent.
std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "emusim_" + tag + ".json";
}

Json parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  Json root;
  std::string err;
  EXPECT_TRUE(Json::parse(buf.str(), &root, &err)) << err;
  return root;
}

// --- Perfetto writer -------------------------------------------------------

TEST(PerfettoTrace, RoundTripsMigratingRun) {
  emu::Machine m(emu::SystemConfig::chick_hw());
  m.trace.enable();
  emu::Striped1D<std::int64_t> arr(m, 64);
  m.run_root([&](emu::Context& ctx) { return striped_walk(ctx, &arr); });
  const std::uint64_t migrations = m.stats.migrations;
  ASSERT_GT(migrations, 0u);

  const std::string path = temp_path("roundtrip");
  std::string err;
  ASSERT_TRUE(report::write_perfetto_trace(m.trace, m.num_nodelets(), path,
                                           &err))
      << err;
  const Json root = parse_file(path);

  const Json* meta = root.find("otherData")->find("emusim");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->get_number("records"), double(m.trace.size()));
  EXPECT_EQ(meta->get_number("dropped"), 0.0);
  EXPECT_FALSE(meta->get_bool("truncated"));
  EXPECT_EQ(meta->get_number("num_nodelets"), double(m.num_nodelets()));

  const Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<std::string, int> by_ph;
  std::map<std::pair<int, int>, int> depth;  // (pid,tid) open slices
  int flow_pairs_ok = 0;
  std::map<int, double> flow_start_ts;
  for (const Json& e : events->items()) {
    const std::string ph = e.get_string("ph");
    ++by_ph[ph];
    const int pid = static_cast<int>(e.get_number("pid", -1));
    if (ph != "M") {
      EXPECT_GE(pid, 0);
      EXPECT_LT(pid, m.num_nodelets());
    }
    if (ph == "B") ++depth[{pid, static_cast<int>(e.get_number("tid"))}];
    if (ph == "E") --depth[{pid, static_cast<int>(e.get_number("tid"))}];
    if (ph == "s") {
      flow_start_ts[static_cast<int>(e.get_number("id"))] =
          e.get_number("ts");
      const Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ((static_cast<int>(args->get_number("src")) + 1) %
                    m.num_nodelets(),
                static_cast<int>(args->get_number("dst")));
    }
    if (ph == "f") {
      EXPECT_EQ(e.get_string("bp"), "e");
      const auto it = flow_start_ts.find(static_cast<int>(e.get_number("id")));
      ASSERT_NE(it, flow_start_ts.end());
      EXPECT_GE(e.get_number("ts"), it->second);
      ++flow_pairs_ok;
    }
  }
  // One flow arrow per migration, every 'f' paired with an earlier 's'.
  EXPECT_EQ(by_ph["s"], static_cast<int>(migrations));
  EXPECT_EQ(flow_pairs_ok, static_cast<int>(migrations));
  EXPECT_EQ(by_ph["B"], by_ph["E"]);  // all slices closed
  for (const auto& [key, d] : depth) EXPECT_EQ(d, 0) << key.first;
  EXPECT_GT(by_ph["C"], 0);                         // counter tracks
  EXPECT_EQ(by_ph["M"], 2 * m.num_nodelets());      // name + sort per nodelet
  std::remove(path.c_str());
}

TEST(PerfettoTrace, TruncatedRingTraceStillBalancesAndSaysSo) {
  emu::Machine m(emu::SystemConfig::chick_hw());
  m.trace.enable(/*capacity=*/32);  // far smaller than the event count
  emu::Striped1D<std::int64_t> arr(m, 64);
  m.run_root([&](emu::Context& ctx) { return striped_walk(ctx, &arr); });
  ASSERT_TRUE(m.trace.truncated());

  const std::string path = temp_path("truncated");
  std::string err;
  ASSERT_TRUE(report::write_perfetto_trace(m.trace, m.num_nodelets(), path,
                                           &err))
      << err;
  const Json root = parse_file(path);
  const Json* meta = root.find("otherData")->find("emusim");
  EXPECT_TRUE(meta->get_bool("truncated"));
  EXPECT_GT(meta->get_number("dropped"), 0.0);
  // Even over a window that starts mid-run the writer must emit balanced
  // slices (stale starts closed, missing starts synthesized).
  int b = 0, e = 0;
  for (const Json& ev : root.find("traceEvents")->items()) {
    if (ev.get_string("ph") == "B") ++b;
    if (ev.get_string("ph") == "E") ++e;
  }
  EXPECT_EQ(b, e);
  std::remove(path.c_str());
}

TEST(TraceAccounting, JsonCarriesAllFields) {
  sim::Tracer t;
  t.enable(2);
  t.record(0, sim::TraceKind::mem_read, 0);
  t.record(1, sim::TraceKind::mem_read, 0);
  t.record(2, sim::TraceKind::mem_read, 0);
  const Json j = report::to_json(report::trace_accounting(t));
  EXPECT_EQ(j.get_number("records"), 2.0);
  EXPECT_EQ(j.get_number("dropped"), 1.0);
  EXPECT_TRUE(j.get_bool("truncated"));
}

// --- phase-scoped counter deltas -------------------------------------------

TEST(CounterDelta, ClampsMatrixAndPropagatesTruncation) {
  // Synthetic snapshots: under ring truncation a later matrix can have
  // *smaller* cells than an earlier one; the delta clamps at zero rather
  // than wrapping, and the truncated flag is sticky.
  emu::CounterSnapshot a, b;
  a.phase = "a";
  b.phase = "b";
  a.t = 0;
  b.t = ms(1);
  a.nodelets.resize(2);
  b.nodelets.resize(2);
  b.nodelets[0].reads = 7;
  a.migration_matrix = {{0, 5}, {2, 0}};
  b.migration_matrix = {{0, 3}, {9, 0}};
  a.trace_truncated = true;  // the *older* snapshot saw a truncated trace
  const auto d = emu::counters_delta(a, b);
  EXPECT_EQ(d.migration_matrix[0][1], 0u);  // 3 - 5 clamps
  EXPECT_EQ(d.migration_matrix[1][0], 7u);  // 9 - 2
  EXPECT_TRUE(d.trace_truncated);
  EXPECT_EQ(d.nodelets[0].reads, 7u);
  EXPECT_EQ(d.from, "a");
  EXPECT_EQ(d.to, "b");
}

TEST(CounterDelta, JsonReportsTruncationAndPerNodeletRows) {
  emu::Machine m(emu::SystemConfig::chick_hw());
  m.trace.enable(/*capacity=*/16);
  emu::Striped1D<std::int64_t> arr(m, 64);
  const auto before = emu::snapshot_counters(m, "start");
  m.run_root([&](emu::Context& ctx) { return striped_walk(ctx, &arr); });
  const auto after = emu::snapshot_counters(m, "walk");
  const Json j = report::to_json(emu::counters_delta(before, after));
  EXPECT_EQ(j.get_string("phase"), "walk");
  EXPECT_TRUE(j.get_bool("trace_truncated"));
  const Json* nodelets = j.find("nodelets");
  ASSERT_NE(nodelets, nullptr);
  ASSERT_EQ(nodelets->items().size(), 8u);
  const Json* matrix = j.find("migration_matrix");
  ASSERT_NE(matrix, nullptr);
  EXPECT_EQ(matrix->items().size(), 8u);
  const Json* mach = j.find("machine");
  ASSERT_NE(mach, nullptr);
  EXPECT_GT(mach->get_number("migrations"), 0.0);
}

// --- counters_report -------------------------------------------------------

TEST(CountersReport, SurvivesLongMachineNamesAndFlagsTruncation) {
  // Regression: the report used a fixed 256-byte line buffer, so a long
  // machine name silently truncated the header (and could truncate rows).
  auto cfg = emu::SystemConfig::chick_hw();
  cfg.name.assign(300, 'x');
  emu::Machine m(cfg);
  m.trace.enable(/*capacity=*/8);
  emu::Striped1D<std::int64_t> arr(m, 64);
  const Time elapsed =
      m.run_root([&](emu::Context& ctx) { return striped_walk(ctx, &arr); });
  const std::string report = emu::counters_report(m, elapsed);
  EXPECT_NE(report.find(cfg.name), std::string::npos)
      << "long machine name was truncated out of the report";
  EXPECT_NE(report.find("TRUNCATED"), std::string::npos)
      << "report over a truncated trace must say so";
}

// --- BenchObserver ---------------------------------------------------------

TEST(BenchObserver, CollectsRunsAndWritesTrace) {
  const std::string path = temp_path("observer");
  {
    report::BenchObserver obs({/*counters=*/true, path,
                               /*trace_capacity=*/1 << 12});
    // Machines constructed while the observer is installed are traced even
    // though this scope never touches m.trace directly.
    for (int run = 0; run < 2; ++run) {
      emu::Machine m(emu::SystemConfig::chick_hw());
      emu::Striped1D<std::int64_t> arr(m, 64);
      m.run_root([&](emu::Context& ctx) { return striped_walk(ctx, &arr); });
    }
    EXPECT_EQ(obs.runs(), 2);
    auto pending = obs.take_pending_counters();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_GT(pending[0].find("machine")->get_number("migrations"), 0.0);
    EXPECT_TRUE(obs.take_pending_counters().empty());  // drained

    std::string err;
    ASSERT_TRUE(obs.write_trace(&err)) << err;
    const auto acct = obs.last_trace_accounting();
    EXPECT_GT(acct.records, 0u);
  }
  // Observer uninstalled: new machines are untraced again.
  emu::Machine m(emu::SystemConfig::chick_hw());
  EXPECT_FALSE(m.trace.enabled());

  const Json root = parse_file(path);
  EXPECT_TRUE(root.find("traceEvents")->is_array());
  std::remove(path.c_str());
}

TEST(BenchObserver, WriteTraceFailsCleanlyOnBadPath) {
  report::BenchObserver obs({false, "/nonexistent-dir/trace.json", 64});
  {
    emu::Machine m(emu::SystemConfig::chick_hw());
    emu::Striped1D<std::int64_t> arr(m, 8);
    m.run_root([&](emu::Context& ctx) { return striped_walk(ctx, &arr); });
  }
  std::string err;
  EXPECT_FALSE(obs.write_trace(&err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace emusim
