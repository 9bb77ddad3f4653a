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
using emusim::bench::Options;
using emusim::bench::PointSink;
using emusim::bench::SweepPool;

Options with_jobs(int jobs) {
  Options o;
  o.jobs = jobs;
  return o;
}

/// Submit `n` jobs that finish in reverse submission order (the first job
/// sleeps longest) and return the merged result as JSON text.
std::string scrambled_run(int jobs, int n) {
  const Options opt = with_jobs(jobs);
  Harness h("sweep_pool_test", opt);
  h.table("scramble");
  SweepPool pool(opt);
  for (int i = 0; i < n; ++i) {
    pool.submit([i, n](PointSink& sink) {
      std::this_thread::sleep_for(std::chrono::milliseconds(n - i));
      sink.add("s", i, i * 10.0, {{"extra", i * 100.0}});
    });
  }
  std::string err;
  EXPECT_TRUE(pool.drain(h, &err)) << err;
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
  const Options opt = with_jobs(3);
  Harness h("sweep_pool_test", opt);
  SweepPool pool(opt);
  EXPECT_EQ(pool.jobs(), 3);
}

TEST(SweepPoolDeathTest, DuplicatePointFailsTheRun) {
  // Two jobs land on the same (series, x): the merge must fail the run
  // naming the point, not average or keep either value.
  EXPECT_EXIT(
      {
        const Options opt = with_jobs(2);
        Harness h("sweep_pool_test", opt);
        h.table("dups");
        SweepPool pool(opt);
        pool.submit([](PointSink& sink) { sink.add("s", 1, 1.0); });
        pool.submit([](PointSink& sink) { sink.add("s", 1, 2.0); });
        std::string err;
        pool.drain(h, &err);
      },
      testing::ExitedWithCode(1), "duplicate point: series 's'.*x=1");
}

TEST(SweepPool, FailPropagatesToDrain) {
  const Options opt = with_jobs(2);
  Harness h("sweep_pool_test", opt);
  h.table("fail");
  SweepPool pool(opt);
  pool.submit([](PointSink& sink) { sink.add("s", 0, 1.0); });
  pool.submit([](PointSink& sink) { sink.fail("verification failed"); });
  std::string err;
  EXPECT_FALSE(pool.drain(h, &err));
  EXPECT_NE(err.find("verification failed"), std::string::npos) << err;
}

TEST(SweepPool, FirstFailureInSubmissionOrderWins) {
  // Job 2 fails fast, job 1 fails slow: the reported error must still be
  // job 1's, matching what the serial loop would have hit first.
  const Options opt = with_jobs(4);
  Harness h("sweep_pool_test", opt);
  h.table("fail");
  SweepPool pool(opt);
  pool.submit([](PointSink& sink) { sink.add("s", 0, 1.0); });
  pool.submit([](PointSink& sink) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sink.fail("earlier job");
  });
  pool.submit([](PointSink& sink) { sink.fail("later job"); });
  std::string err;
  EXPECT_FALSE(pool.drain(h, &err));
  EXPECT_NE(err.find("earlier job"), std::string::npos) << err;
  EXPECT_EQ(err.find("later job"), std::string::npos) << err;
}

TEST(SweepPool, UnhandledExceptionIsCaptured) {
  const Options opt = with_jobs(2);
  Harness h("sweep_pool_test", opt);
  h.table("throw");
  SweepPool pool(opt);
  pool.submit(
      [](PointSink&) { throw std::runtime_error("kernel blew up"); });
  std::string err;
  EXPECT_FALSE(pool.drain(h, &err));
  EXPECT_NE(err.find("kernel blew up"), std::string::npos) << err;
}

TEST(SweepPool, DrainResetsForReuse) {
  // Benches with several tables reuse one pool across loops; drain must
  // leave the pool ready for a fresh batch.
  const Options opt = with_jobs(2);
  Harness h("sweep_pool_test", opt);
  h.table("first");
  SweepPool pool(opt);
  pool.submit([](PointSink& sink) { sink.add("a", 0, 1.0); });
  std::string err;
  ASSERT_TRUE(pool.drain(h, &err)) << err;
  pool.submit([](PointSink& sink) { sink.add("a", 1, 2.0); });
  ASSERT_TRUE(pool.drain(h, &err)) << err;
  EXPECT_EQ(h.result().series.at(0).points.size(), 2u);
}

TEST(SweepPool, OnePoolServesSuccessiveHarnesses) {
  // bench/suite drains one pool into a fresh harness per figure: each
  // figure's result holds its own points only.
  const Options opt = with_jobs(2);
  SweepPool pool(opt);
  Harness first("first_figure", opt);
  pool.submit([](PointSink& sink) { sink.add("a", 0, 1.0); });
  std::string err;
  ASSERT_TRUE(pool.drain(first, &err)) << err;
  Harness second("second_figure", opt);
  pool.submit([](PointSink& sink) { sink.add("b", 0, 2.0); });
  pool.submit([](PointSink& sink) { sink.add("b", 1, 3.0); });
  ASSERT_TRUE(pool.drain(second, &err)) << err;
  ASSERT_EQ(first.result().series.size(), 1u);
  EXPECT_EQ(first.result().series[0].name, "a");
  EXPECT_EQ(first.result().series[0].points.size(), 1u);
  ASSERT_EQ(second.result().series.size(), 1u);
  EXPECT_EQ(second.result().series[0].name, "b");
  EXPECT_EQ(second.result().series[0].points.size(), 2u);
}

}  // namespace
