// Unit tests for the shared bench flag parser — especially the rejection
// paths (unknown flags, flags missing their argument) that used to be
// silently ignored.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "serve/service.hpp"
#include "xeon/config.hpp"

namespace {

using emusim::bench::Harness;
using emusim::bench::Options;
using emusim::bench::parse_options;

struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(const_cast<char*>("bench"));
    for (auto& s : storage) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(ParseOptions, DefaultsWithNoFlags) {
  Argv a({});
  Options opt;
  std::string err;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err)) << err;
  EXPECT_FALSE(opt.quick);
  EXPECT_TRUE(opt.json_dir.empty());
  EXPECT_FALSE(opt.help);
}

TEST(ParseOptions, ParsesAllCommonFlags) {
  Argv a({"--quick", "--json", "out", "--filter", "spawn"});
  Options opt;
  std::string err;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err)) << err;
  EXPECT_TRUE(opt.quick);
  EXPECT_EQ(opt.json_dir, "out");
  EXPECT_EQ(opt.filter, "spawn");
}

TEST(ParseOptions, RejectsUnknownFlag) {
  Argv a({"--frobnicate"});
  Options opt;
  std::string err;
  EXPECT_FALSE(parse_options(a.argc(), a.argv(), &opt, &err));
  EXPECT_NE(err.find("--frobnicate"), std::string::npos);
}

TEST(ParseOptions, RejectsTrailingFlagMissingArgument) {
  for (const char* flag : {"--json", "--filter", "--jobs"}) {
    Argv a({flag});
    Options opt;
    std::string err;
    EXPECT_FALSE(parse_options(a.argc(), a.argv(), &opt, &err)) << flag;
    EXPECT_NE(err.find(flag), std::string::npos) << err;
  }
}

TEST(ParseOptions, ParsesJobs) {
  Argv a({"--jobs", "8"});
  Options opt;
  std::string err;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err)) << err;
  EXPECT_EQ(opt.jobs, 8);

  Argv b({"--jobs=2"});
  ASSERT_TRUE(parse_options(b.argc(), b.argv(), &opt, &err)) << err;
  EXPECT_EQ(opt.jobs, 2);
}

TEST(ParseOptions, JobsDefaultsToAuto) {
  Argv a({});
  Options opt;
  std::string err;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err)) << err;
  EXPECT_EQ(opt.jobs, 0);  // 0 = pick hardware_concurrency at run time
}

TEST(ParseOptions, RejectsBadJobsValues) {
  for (const char* jobs : {"0", "-4", "abc", "2000"}) {
    Argv a({"--jobs", jobs});
    Options opt;
    std::string err;
    EXPECT_FALSE(parse_options(a.argc(), a.argv(), &opt, &err)) << jobs;
  }
}

TEST(ParseOptions, RejectsEngineThreadsAsUnknownFlag) {
  Argv a({"--engine-threads", "4"});
  Options opt;
  std::string err;
  EXPECT_FALSE(parse_options(a.argc(), a.argv(), &opt, &err));
  EXPECT_NE(err.find("unknown flag '--engine-threads'"), std::string::npos)
      << err;
}

TEST(ParseOptions, RejectsBarePositionalArgument) {
  Argv a({"stray"});
  Options opt;
  std::string err;
  EXPECT_FALSE(parse_options(a.argc(), a.argv(), &opt, &err));
}

TEST(ParseOptions, CollectsPositionalsApartFromFlagValues) {
  // Figure names sit among the flags; a value flag's argument is never one.
  Argv a({"fig04", "--json", "out", "--filter=t4", "fig07", "--quick"});
  Options opt;
  std::string err;
  std::vector<std::string> names;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err, &names)) << err;
  EXPECT_EQ(names, (std::vector<std::string>{"fig04", "fig07"}));
  EXPECT_EQ(opt.json_dir, "out");
  EXPECT_EQ(opt.filter, "t4");
  EXPECT_TRUE(opt.quick);
}

TEST(ParseOptions, HelpFlagSetsHelp) {
  Argv a({"--help"});
  Options opt;
  std::string err;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err)) << err;
  EXPECT_TRUE(opt.help);
}

TEST(ParseOptions, RejectsBenchmarkFlags) {
  // The figure benches record simulated points only; microbenchmark
  // timing flags are unknown here.
  Argv a({"--benchmark_filter=BM_Engine"});
  Options opt;
  std::string err;
  EXPECT_FALSE(parse_options(a.argc(), a.argv(), &opt, &err));
}

TEST(ParseOptions, ObserveFlagsAndInlineValues) {
  Argv a({"--trace", "t.json", "--trace-cap=4096", "--counters",
          "--filter=spawn"});
  Options opt;
  std::string err;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err)) << err;
  EXPECT_EQ(opt.trace_path, "t.json");
  EXPECT_EQ(opt.trace_cap, 4096);
  EXPECT_TRUE(opt.counters);
  EXPECT_EQ(opt.filter, "spawn");  // --flag=value form on a string flag
}

TEST(ParseOptions, TraceEqualsFormAndDefaults) {
  Argv a({"--trace=out/trace.json"});
  Options opt;
  std::string err;
  ASSERT_TRUE(parse_options(a.argc(), a.argv(), &opt, &err)) << err;
  EXPECT_EQ(opt.trace_path, "out/trace.json");
  EXPECT_EQ(opt.trace_cap, 1 << 16);
  EXPECT_FALSE(opt.counters);
}

TEST(ParseOptions, RejectsMalformedObserveFlags) {
  const std::vector<std::vector<std::string>> bad = {
      {"--trace"},             // missing value
      {"--trace="},            // empty value
      {"--trace-cap", "0"},    // must be positive
      {"--trace-cap", "-5"},
      {"--trace-cap", "abc"},
      {"--counters=yes"},      // boolean flag takes no value
      {"--quick=1"},
  };
  for (const auto& args : bad) {
    Argv a(args);
    Options opt;
    std::string err;
    EXPECT_FALSE(parse_options(a.argc(), a.argv(), &opt, &err)) << args[0];
    EXPECT_FALSE(err.empty()) << args[0];
  }
}

TEST(HarnessDeathTest, DuplicateXPointExitsNamingIt) {
  // Every point is a deterministic simulated value recorded once; a second
  // add at the same (series, x) is a bench bug, not a sample to average.
  EXPECT_EXIT(
      {
        Harness h("dup_test", Options{});
        h.add("emu", 4, 1.0);
        h.add("xeon", 4, 2.0);  // same x, other series: fine
        h.add("emu", 4, 3.0);
      },
      testing::ExitedWithCode(1), "duplicate point: series 'emu'.*x=4");
}

TEST(HarnessDeathTest, DuplicateLabelPointExitsNamingIt) {
  EXPECT_EXIT(
      {
        Harness h("dup_test", Options{});
        h.add_labeled("emu", "zipf", 1, 1.0);
        h.add_labeled("emu", "uniform", 0, 2.0);
        h.add_labeled("emu", "zipf", 1, 3.0);
      },
      testing::ExitedWithCode(1),
      "duplicate point: series 'emu'.*label 'zipf'");
}

TEST(PhaseP99Extras, ServePointCarriesInsertTailAndSkipsEmptyPhases) {
  // A small serve_btree-style point with no scans: the insert tail the
  // Xeon writer-latch gate reads is reported, the empty scan phase is not.
  emusim::serve::ServeParams p;
  p.stream.requests = 256;
  p.stream.key_space = 1024;
  p.stream.process = emusim::serve::Arrival::zipf;
  p.stream.lookup_pct = 80;
  p.stream.insert_pct = 20;
  p.stream.scan_pct = 0;
  const auto r = emusim::serve::serve_xeon(
      emusim::xeon::SystemConfig::sandy_bridge(), p);
  ASSERT_TRUE(r.verified) << r.error;
  ASSERT_GT(r.inserts, 0u);

  std::vector<std::pair<std::string, double>> extra = {{"sim_ms", 1.0}};
  emusim::bench::add_phase_p99s(r.lat, &extra);
  ASSERT_EQ(extra.size(), 3u);
  EXPECT_EQ(extra[0].first, "sim_ms");
  EXPECT_EQ(extra[1].first, "lat_lookup_p99_us");
  EXPECT_EQ(extra[2].first, "lat_insert_p99_us");
  const auto insert = static_cast<std::size_t>(emusim::serve::OpKind::insert);
  EXPECT_DOUBLE_EQ(extra[2].second,
                   static_cast<double>(r.lat.phase(insert).p99()) * 1e-6);
  EXPECT_GT(extra[2].second, 0.0);
}

TEST(Usage, MentionsEveryFlag) {
  const std::string u = emusim::bench::usage("some_bench");
  EXPECT_NE(u.find("[<figure>...]"), std::string::npos);
  EXPECT_NE(u.find("usage:"), std::string::npos);
  EXPECT_NE(u.find("some_bench"), std::string::npos);
  for (const char* flag :
       {"--json", "--quick", "--filter", "--jobs",
        "--trace", "--trace-cap", "--counters", "--help"}) {
    EXPECT_NE(u.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
