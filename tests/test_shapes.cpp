// Unit tests for the result schema round-trip, the shape-assertion verdict
// logic, and the benchdiff comparison — the pieces CI's perf gate stands on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "report/diff.hpp"
#include "report/json.hpp"
#include "report/results.hpp"
#include "report/shapes.hpp"

namespace {

using emusim::report::BenchResult;
using emusim::report::DiffOptions;
using emusim::report::Json;
using emusim::report::ResultPoint;
using emusim::report::ResultSeries;
using emusim::report::ShapeSpec;

BenchResult sample_result() {
  BenchResult r;
  r.bench = "sample_bench";
  r.x_axis = "threads";
  r.y_axis = "mb_per_sec";
  r.quick = true;
  r.config = {{"machine", "sample"}, {"n", "1024"}};
  ResultSeries fast;
  fast.name = "fast";
  fast.points = {{1, 100, "", {{"util_pct", 50}}},
                 {2, 190, "", {{"util_pct", 95}}},
                 {4, 200, "", {{"util_pct", 100}}}};
  ResultSeries slow;
  slow.name = "slow";
  slow.points = {{1, 50, "", {}}, {2, 60, "", {}}, {4, 61, "", {}}};
  ResultSeries graphs;
  graphs.name = "graphs";
  graphs.points = {{0, 10, "grid", {}}, {1, 30, "rmat", {}}};
  r.series = {fast, slow, graphs};
  r.fingerprint = emusim::report::result_fingerprint(r);
  return r;
}

ShapeSpec parse_spec(const std::string& text) {
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parse(text, &j, &err)) << err;
  ShapeSpec spec;
  EXPECT_TRUE(ShapeSpec::from_json(j, &spec, &err)) << err;
  return spec;
}

// --- result schema ---------------------------------------------------------

TEST(Results, JsonRoundTripPreservesEverything) {
  const BenchResult r = sample_result();
  BenchResult back;
  std::string err;
  ASSERT_TRUE(BenchResult::from_json(r.to_json(), &back, &err)) << err;
  EXPECT_EQ(back.bench, r.bench);
  EXPECT_EQ(back.x_axis, "threads");
  EXPECT_EQ(back.y_axis, "mb_per_sec");
  EXPECT_TRUE(back.quick);
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  ASSERT_EQ(back.series.size(), 3u);
  ASSERT_EQ(back.series[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(back.series[0].points[1].y, 190.0);
  const double* util = back.series[0].points[1].metric("util_pct");
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(*util, 95.0);
  EXPECT_EQ(back.series[2].points[1].label, "rmat");
  EXPECT_EQ(back.config, r.config);
}

TEST(Results, ReaderIgnoresRetiredRepsKey) {
  // The writer no longer records "reps" or the serving benches' "latency"
  // histogram blob, but older baselines still carry them: those files must
  // keep loading, and re-serialize without the retired keys.
  Json j = sample_result().to_json();
  EXPECT_EQ(j.find("reps"), nullptr);
  EXPECT_EQ(j.find("latency"), nullptr);
  j.set("reps", Json::number(3));
  Json hist = Json::object();
  hist.set("count", Json::number(128));
  hist.set("p99_ps", Json::number(142600000));
  Json latency = Json::object();
  latency.set("emu/zipf", std::move(hist));
  j.set("latency", std::move(latency));
  BenchResult back;
  std::string err;
  ASSERT_TRUE(BenchResult::from_json(j, &back, &err)) << err;
  EXPECT_EQ(back.to_json().dump(), sample_result().to_json().dump());
}

TEST(Results, FromJsonRejectsWrongSchemaVersion) {
  Json j = sample_result().to_json();
  j.set("schema_version", Json::number(999));
  BenchResult back;
  std::string err;
  EXPECT_FALSE(BenchResult::from_json(j, &back, &err));
  EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(Results, FingerprintSensitiveToConfigAndQuick) {
  BenchResult a = sample_result();
  BenchResult b = a;
  EXPECT_EQ(emusim::report::result_fingerprint(a),
            emusim::report::result_fingerprint(b));
  b.config.emplace_back("extra", "1");
  EXPECT_NE(emusim::report::result_fingerprint(a),
            emusim::report::result_fingerprint(b));
  BenchResult c = a;
  c.quick = false;
  EXPECT_NE(emusim::report::result_fingerprint(a),
            emusim::report::result_fingerprint(c));
}

TEST(Results, FindByXAndLabel) {
  const BenchResult r = sample_result();
  const ResultSeries* fast = r.find("fast");
  ASSERT_NE(fast, nullptr);
  const ResultPoint* p = fast->find(2);
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->y, 190.0);
  EXPECT_EQ(fast->find(3), nullptr);
  const ResultSeries* graphs = r.find("graphs");
  ASSERT_NE(graphs, nullptr);
  const ResultPoint* rmat = graphs->find_label("rmat");
  ASSERT_NE(rmat, nullptr);
  EXPECT_DOUBLE_EQ(rmat->y, 30.0);
  EXPECT_EQ(r.find("nope"), nullptr);
}

// --- shape assertions ------------------------------------------------------

TEST(Shapes, AllVocabularyTypesPassOnSampleData) {
  const ShapeSpec spec = parse_spec(R"({
    "schema_version": 1, "bench": "sample_bench", "asserts": [
      {"type": "value_between", "a": {"series": "fast", "x": 4,
       "metric": "util_pct"}, "lo": 99, "hi": 101},
      {"type": "ratio_gt", "a": {"series": "fast", "x": 1},
       "b": {"series": "slow", "x": 1}, "bound": 1.9},
      {"type": "ratio_lt", "a": {"series": "slow", "x": 1},
       "b": {"series": "fast", "x": 1}, "bound": 0.6},
      {"type": "ratio_between", "a": {"series": "graphs", "label": "rmat"},
       "b": {"series": "graphs", "label": "grid"}, "lo": 2.9, "hi": 3.1},
      {"type": "flat_within", "a": {"series": "slow"}, "xs": [2, 4],
       "bound": 1.05},
      {"type": "dominates", "a": {"series": "fast"}, "b": {"series": "slow"},
       "factor": 2.0},
      {"type": "knee_at", "a": {"series": "fast"}, "before": 1, "knee": 2,
       "after": 4, "min_scale": 1.5, "max_flat": 1.2}
    ]})");
  const auto verdicts = emusim::report::evaluate(spec, sample_result());
  ASSERT_EQ(verdicts.size(), 7u);
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.pass) << v.desc << ": " << v.detail;
  }
}

TEST(Shapes, FailingAssertionsReportDetails) {
  const ShapeSpec spec = parse_spec(R"({
    "schema_version": 1, "bench": "sample_bench", "asserts": [
      {"type": "dominates", "a": {"series": "slow"}, "b": {"series": "fast"}},
      {"type": "flat_within", "a": {"series": "fast"}, "bound": 1.1},
      {"type": "knee_at", "a": {"series": "fast"}, "before": 1, "knee": 2,
       "after": 4, "min_scale": 3.0, "max_flat": 1.2}
    ]})");
  const auto verdicts = emusim::report::evaluate(spec, sample_result());
  ASSERT_EQ(verdicts.size(), 3u);
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.pass) << v.desc;
    EXPECT_FALSE(v.detail.empty());
  }
}

TEST(Shapes, MissingDataFailsInsteadOfSkipping) {
  const ShapeSpec spec = parse_spec(R"({
    "schema_version": 1, "bench": "sample_bench", "asserts": [
      {"type": "value_between", "a": {"series": "ghost", "x": 1},
       "lo": 0, "hi": 1},
      {"type": "value_between", "a": {"series": "fast", "x": 99},
       "lo": 0, "hi": 1},
      {"type": "value_between", "a": {"series": "fast", "x": 1,
       "metric": "no_such_metric"}, "lo": 0, "hi": 1},
      {"type": "frobnicate", "a": {"series": "fast", "x": 1}}
    ]})");
  const auto verdicts = emusim::report::evaluate(spec, sample_result());
  ASSERT_EQ(verdicts.size(), 4u);
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.pass) << v.desc << ": " << v.detail;
  }
}

TEST(Shapes, SpecParserRejectsBadSpecs) {
  Json j;
  std::string err;
  ShapeSpec spec;
  ASSERT_TRUE(Json::parse(
      R"({"schema_version": 2, "bench": "b", "asserts": []})", &j, &err));
  EXPECT_FALSE(ShapeSpec::from_json(j, &spec, &err));
  ASSERT_TRUE(Json::parse(
      R"({"schema_version": 1, "asserts": []})", &j, &err));
  EXPECT_FALSE(ShapeSpec::from_json(j, &spec, &err));
  ASSERT_TRUE(Json::parse(
      R"({"schema_version": 1, "bench": "b",
          "asserts": [{"type": "ratio_gt"}]})", &j, &err));
  EXPECT_FALSE(ShapeSpec::from_json(j, &spec, &err));
}

// --- benchdiff -------------------------------------------------------------

TEST(Diff, IdenticalResultsAreClean) {
  const std::vector<BenchResult> base = {sample_result()};
  const auto rep = emusim::report::diff_results(base, base, DiffOptions{});
  EXPECT_TRUE(rep.ok(DiffOptions{}));
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_TRUE(rep.problems.empty());
  EXPECT_EQ(rep.entries.size(), 8u);
}

TEST(Diff, FlagsRegressionBeyondTolerance) {
  const std::vector<BenchResult> base = {sample_result()};
  std::vector<BenchResult> cand = base;
  cand[0].series[0].points[2].y *= 0.90;  // -10% on fast[x=4]
  cand[0].series[1].points[0].y *= 0.96;  // -4%: within tolerance
  DiffOptions opt;
  opt.max_regress_pct = 5.0;
  const auto rep = emusim::report::diff_results(base, cand, opt);
  EXPECT_FALSE(rep.ok(opt));
  EXPECT_EQ(rep.regressions, 1);
  int flagged = 0;
  for (const auto& e : rep.entries) {
    if (e.regression) {
      ++flagged;
      EXPECT_EQ(e.series, "fast");
      EXPECT_DOUBLE_EQ(e.x, 4.0);
      EXPECT_NEAR(e.delta_pct, -10.0, 1e-9);
    }
  }
  EXPECT_EQ(flagged, 1);
}

TEST(Diff, ImprovementsNeverFail) {
  const std::vector<BenchResult> base = {sample_result()};
  std::vector<BenchResult> cand = base;
  for (auto& s : cand[0].series) {
    for (auto& p : s.points) p.y *= 2.0;
  }
  const auto rep = emusim::report::diff_results(base, cand, DiffOptions{});
  EXPECT_TRUE(rep.ok(DiffOptions{}));
  EXPECT_EQ(rep.regressions, 0);
  EXPECT_GT(rep.improvements, 0);
}

TEST(Diff, MissingCoverageIsAProblem) {
  const std::vector<BenchResult> base = {sample_result()};
  std::vector<BenchResult> cand = base;
  cand[0].series[0].points.pop_back();          // drop fast[x=4]
  cand[0].series.erase(cand[0].series.begin() + 1);  // drop slow entirely
  DiffOptions opt;
  const auto rep = emusim::report::diff_results(base, cand, opt);
  EXPECT_FALSE(rep.ok(opt));
  EXPECT_GE(rep.problems.size(), 2u);
  opt.require_coverage = false;
  EXPECT_TRUE(rep.ok(opt));
}

TEST(Diff, MissingBenchIsAProblem) {
  const std::vector<BenchResult> base = {sample_result()};
  const auto rep =
      emusim::report::diff_results(base, {}, DiffOptions{});
  EXPECT_FALSE(rep.ok(DiffOptions{}));
  ASSERT_EQ(rep.problems.size(), 1u);
  EXPECT_NE(rep.problems[0].find("sample_bench"), std::string::npos);
}

TEST(Diff, FingerprintMismatchIsAProblemNotAComparison) {
  const std::vector<BenchResult> base = {sample_result()};
  std::vector<BenchResult> cand = base;
  cand[0].config.emplace_back("n", "2048");
  cand[0].fingerprint = emusim::report::result_fingerprint(cand[0]);
  const auto rep = emusim::report::diff_results(base, cand, DiffOptions{});
  EXPECT_FALSE(rep.ok(DiffOptions{}));
  ASSERT_FALSE(rep.problems.empty());
  EXPECT_NE(rep.problems[0].find("fingerprint"), std::string::npos);
  EXPECT_TRUE(rep.entries.empty());
}

TEST(Diff, CandidateOnlyDataIsIgnored) {
  const std::vector<BenchResult> base = {sample_result()};
  std::vector<BenchResult> cand = base;
  BenchResult extra = sample_result();
  extra.bench = "brand_new_bench";
  extra.fingerprint = emusim::report::result_fingerprint(extra);
  cand.push_back(extra);
  ResultSeries more;
  more.name = "new_series";
  more.points = {{1, 1, "", {}}};
  cand[0].series.push_back(more);
  const auto rep = emusim::report::diff_results(base, cand, DiffOptions{});
  EXPECT_TRUE(rep.ok(DiffOptions{}));
  EXPECT_EQ(rep.entries.size(), 8u);
}

// --- serving shapes and latency diffs --------------------------------------

/// A serving-bench-shaped result: labeled arrival-process points carrying
/// lat_* extras, plus a closed-loop batch sweep.
BenchResult serving_result() {
  BenchResult r;
  r.bench = "serving_sample";
  r.x_axis = "batch";
  r.y_axis = "mops_per_sec";
  r.quick = true;
  ResultSeries emu;
  emu.name = "emu";
  emu.points = {
      {0, 0.44, "uniform", {{"lat_p50_us", 12.8}, {"lat_p99_us", 34.6}}},
      {1, 0.43, "zipf", {{"lat_p50_us", 41.9}, {"lat_p99_us", 142.6}}},
      {2, 0.26, "bursty", {{"lat_p50_us", 12.6}, {"lat_p99_us", 32.5}}}};
  ResultSeries sweep;
  sweep.name = "emu_batch";
  // Deliberately out of x order: monotone_nondec must sort by x itself.
  sweep.points = {{32, 0.74, "", {}}, {8, 0.62, "", {}}, {128, 0.76, "", {}}};
  r.series = {emu, sweep};
  r.fingerprint = emusim::report::result_fingerprint(r);
  return r;
}

TEST(Shapes, MonotoneNondecSortsByXAndRespectsSlack) {
  const ShapeSpec pass = parse_spec(R"({
    "schema_version": 1, "bench": "serving_sample", "asserts": [
      {"type": "monotone_nondec", "a": {"series": "emu_batch"}},
      {"type": "monotone_nondec", "a": {"series": "emu_batch"},
       "xs": [8, 32]}
    ]})");
  for (const auto& v : emusim::report::evaluate(pass, serving_result())) {
    EXPECT_TRUE(v.pass) << v.desc << ": " << v.detail;
  }

  BenchResult dipped = serving_result();
  dipped.series[1].points[0].y = 0.5;  // x=32 dips below x=8's 0.62
  const ShapeSpec strict = parse_spec(R"({
    "schema_version": 1, "bench": "serving_sample", "asserts": [
      {"type": "monotone_nondec", "a": {"series": "emu_batch"}}
    ]})");
  auto verdicts = emusim::report::evaluate(strict, dipped);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].pass);
  EXPECT_NE(verdicts[0].detail.find("x=32"), std::string::npos);

  // A generous slack factor forgives the same dip.
  const ShapeSpec slack = parse_spec(R"({
    "schema_version": 1, "bench": "serving_sample", "asserts": [
      {"type": "monotone_nondec", "a": {"series": "emu_batch"},
       "factor": 0.7}
    ]})");
  verdicts = emusim::report::evaluate(slack, dipped);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].pass) << verdicts[0].detail;
}

TEST(Shapes, MonotoneNondecFailsOnMissingData) {
  const ShapeSpec spec = parse_spec(R"({
    "schema_version": 1, "bench": "serving_sample", "asserts": [
      {"type": "monotone_nondec", "a": {"series": "ghost"}},
      {"type": "monotone_nondec", "a": {"series": "emu_batch"},
       "xs": [8]},
      {"type": "monotone_nondec", "a": {"series": "emu_batch",
       "metric": "no_such_metric"}}
    ]})");
  const auto verdicts = emusim::report::evaluate(spec, serving_result());
  ASSERT_EQ(verdicts.size(), 3u);
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.pass) << v.desc << ": " << v.detail;
  }
}

TEST(Shapes, MetricRatioLtQuantifiesOverEveryPoint) {
  const ShapeSpec pass = parse_spec(R"({
    "schema_version": 1, "bench": "serving_sample", "asserts": [
      {"type": "metric_ratio_lt", "a": {"series": "emu",
       "metric": "lat_p99_us"}, "b": {"series": "emu",
       "metric": "lat_p50_us"}, "bound": 6.0}
    ]})");
  for (const auto& v : emusim::report::evaluate(pass, serving_result())) {
    EXPECT_TRUE(v.pass) << v.desc << ": " << v.detail;
  }

  // Tighten the bound below the zipf point's 142.6/41.9 = 3.4: the verdict
  // must fail and name the offending point.
  const ShapeSpec tight = parse_spec(R"({
    "schema_version": 1, "bench": "serving_sample", "asserts": [
      {"type": "metric_ratio_lt", "a": {"series": "emu",
       "metric": "lat_p99_us"}, "b": {"series": "emu",
       "metric": "lat_p50_us"}, "bound": 3.0}
    ]})");
  const auto verdicts = emusim::report::evaluate(tight, serving_result());
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].pass);
  EXPECT_NE(verdicts[0].detail.find("zipf"), std::string::npos);
}

TEST(Shapes, MetricRatioLtFailsOnMissingOrZeroMetrics) {
  const ShapeSpec spec = parse_spec(R"({
    "schema_version": 1, "bench": "serving_sample", "asserts": [
      {"type": "metric_ratio_lt", "a": {"series": "ghost",
       "metric": "lat_p99_us"}, "b": {"series": "ghost",
       "metric": "lat_p50_us"}, "bound": 6.0},
      {"type": "metric_ratio_lt", "a": {"series": "emu",
       "metric": "no_such"}, "b": {"series": "emu",
       "metric": "lat_p50_us"}, "bound": 6.0},
      {"type": "metric_ratio_lt", "a": {"series": "emu",
       "metric": "lat_p99_us"}, "b": {"series": "emu",
       "metric": "no_such"}, "bound": 6.0},
      {"type": "metric_ratio_lt", "a": {"series": "emu"},
       "b": {"series": "emu"}, "bound": 6.0}
    ]})");
  const auto verdicts = emusim::report::evaluate(spec, serving_result());
  ASSERT_EQ(verdicts.size(), 4u);
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.pass) << v.desc << ": " << v.detail;
  }
}

TEST(Diff, LatencyExtrasReportButNeverGate) {
  const std::vector<BenchResult> base = {serving_result()};
  std::vector<BenchResult> cand = base;
  // Blow up a tail by 10x: visible in the report, but never a regression —
  // only the primary throughput y gates.
  for (auto& p : cand[0].series[0].points) {
    for (auto& [k, v] : p.extra) {
      if (k == "lat_p99_us") v *= 10.0;
    }
  }
  DiffOptions opt;
  const auto rep = emusim::report::diff_results(base, cand, opt);
  EXPECT_TRUE(rep.ok(opt));
  EXPECT_EQ(rep.regressions, 0);
  int latency_entries = 0;
  for (const auto& e : rep.entries) {
    if (e.metric.empty()) continue;
    EXPECT_TRUE(e.report_only);
    EXPECT_FALSE(e.regression);
    EXPECT_EQ(e.metric.rfind("lat_", 0), 0u);
    ++latency_entries;
  }
  // 3 labeled emu points x {lat_p50_us, lat_p99_us}.
  EXPECT_EQ(latency_entries, 6);

  // ...but a throughput regression on the same points still gates.
  cand[0].series[0].points[1].y *= 0.5;
  const auto rep2 = emusim::report::diff_results(base, cand, opt);
  EXPECT_FALSE(rep2.ok(opt));
  EXPECT_EQ(rep2.regressions, 1);
}

}  // namespace
