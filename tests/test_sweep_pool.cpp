// Unit tests for the parallel sweep runner: submission-order merge no
// matter which worker finishes first, duplicate points failing the run,
// and failure propagation through the merge barrier.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sweep_pool.hpp"

namespace {

using emusim::bench::Harness;
using emusim::bench::PointSink;
using emusim::bench::SweepPool;

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

/// Submit `n` jobs that finish in reverse submission order (the first job
/// sleeps longest) and return the merged result as JSON text.
std::string scrambled_run(int jobs, int n) {
  Argv a({"--jobs", std::to_string(jobs)});
  Harness h("sweep_pool_test", a.argc(), a.argv());
  h.table("scramble");
  SweepPool pool(h);
  for (int i = 0; i < n; ++i) {
    pool.submit([i, n](PointSink& sink) {
      std::this_thread::sleep_for(std::chrono::milliseconds(n - i));
      sink.add("s", i, i * 10.0, {{"extra", i * 100.0}});
    });
  }
  std::string err;
  EXPECT_TRUE(pool.drain(&err)) << err;
  return h.result().to_json().dump();
}

TEST(SweepPool, MergesInSubmissionOrderRegardlessOfCompletion) {
  // Workers race and complete back-to-front; the merged result must match
  // the single-worker (trivially ordered) run byte for byte.
  const std::string serial = scrambled_run(1, 8);
  const std::string parallel = scrambled_run(4, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(SweepPool, JobsFlagControlsWorkerCount) {
  Argv a({"--jobs", "3"});
  Harness h("sweep_pool_test", a.argc(), a.argv());
  SweepPool pool(h);
  EXPECT_EQ(pool.jobs(), 3);
}

TEST(SweepPoolDeathTest, DuplicatePointFailsTheRun) {
  // Two jobs land on the same (series, x): the merge must fail the run
  // naming the point, not average or keep either value.
  EXPECT_EXIT(
      {
        Argv a({"--jobs", "2"});
        Harness h("sweep_pool_test", a.argc(), a.argv());
        h.table("dups");
        SweepPool pool(h);
        pool.submit([](PointSink& sink) { sink.add("s", 1, 1.0); });
        pool.submit([](PointSink& sink) { sink.add("s", 1, 2.0); });
        std::string err;
        pool.drain(&err);
      },
      testing::ExitedWithCode(1), "duplicate point: series 's'.*x=1");
}

TEST(SweepPool, FailPropagatesToDrain) {
  Argv a({"--jobs", "2"});
  Harness h("sweep_pool_test", a.argc(), a.argv());
  h.table("fail");
  SweepPool pool(h);
  pool.submit([](PointSink& sink) { sink.add("s", 0, 1.0); });
  pool.submit([](PointSink& sink) { sink.fail("verification failed"); });
  std::string err;
  EXPECT_FALSE(pool.drain(&err));
  EXPECT_NE(err.find("verification failed"), std::string::npos) << err;
}

TEST(SweepPool, FirstFailureInSubmissionOrderWins) {
  // Job 2 fails fast, job 1 fails slow: the reported error must still be
  // job 1's, matching what the serial loop would have hit first.
  Argv a({"--jobs", "4"});
  Harness h("sweep_pool_test", a.argc(), a.argv());
  h.table("fail");
  SweepPool pool(h);
  pool.submit([](PointSink& sink) { sink.add("s", 0, 1.0); });
  pool.submit([](PointSink& sink) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sink.fail("earlier job");
  });
  pool.submit([](PointSink& sink) { sink.fail("later job"); });
  std::string err;
  EXPECT_FALSE(pool.drain(&err));
  EXPECT_NE(err.find("earlier job"), std::string::npos) << err;
  EXPECT_EQ(err.find("later job"), std::string::npos) << err;
}

TEST(SweepPool, UnhandledExceptionIsCaptured) {
  Argv a({"--jobs", "2"});
  Harness h("sweep_pool_test", a.argc(), a.argv());
  h.table("throw");
  SweepPool pool(h);
  pool.submit(
      [](PointSink&) { throw std::runtime_error("kernel blew up"); });
  std::string err;
  EXPECT_FALSE(pool.drain(&err));
  EXPECT_NE(err.find("kernel blew up"), std::string::npos) << err;
}

TEST(SweepPool, DrainResetsForReuse) {
  // Benches with several tables reuse one pool across loops; drain must
  // leave the pool ready for a fresh batch.
  Argv a({"--jobs", "2"});
  Harness h("sweep_pool_test", a.argc(), a.argv());
  h.table("first");
  SweepPool pool(h);
  pool.submit([](PointSink& sink) { sink.add("a", 0, 1.0); });
  std::string err;
  ASSERT_TRUE(pool.drain(&err)) << err;
  pool.submit([](PointSink& sink) { sink.add("a", 1, 2.0); });
  ASSERT_TRUE(pool.drain(&err)) << err;
  EXPECT_EQ(h.result().series.at(0).points.size(), 2u);
}

TEST(SweepPool, RngSeedIsPerJobAndStable) {
  Argv a({"--jobs", "4"});
  Harness h("sweep_pool_test", a.argc(), a.argv());
  h.table("seed");
  SweepPool pool(h);
  std::vector<std::uint64_t> seeds(3);
  for (int i = 0; i < 3; ++i) {
    pool.submit([i, &seeds](PointSink& sink) {
      seeds[static_cast<std::size_t>(i)] = sink.rng_seed();
    });
  }
  std::string err;
  ASSERT_TRUE(pool.drain(&err)) << err;
  EXPECT_NE(seeds[0], seeds[1]);
  EXPECT_NE(seeds[1], seeds[2]);
  // Stable across runs: derived from the submission index only.
  std::vector<std::uint64_t> again(3);
  for (int i = 0; i < 3; ++i) {
    pool.submit([i, &again](PointSink& sink) {
      again[static_cast<std::size_t>(i)] = sink.rng_seed();
    });
  }
  ASSERT_TRUE(pool.drain(&err)) << err;
  EXPECT_EQ(seeds, again);
}

}  // namespace
