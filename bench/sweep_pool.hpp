// Parallel sweep runner for the bench harness (the --jobs flag).
//
// Every figure in the paper is a sweep over independent simulation points —
// each point constructs its own Machine + Engine and the simulator is
// deterministic — so points are embarrassingly parallel.  SweepPool runs
// submitted point jobs on a fixed-size worker pool while keeping the output
// *byte-identical* to a serial run (modulo wall-clock fields):
//
//   * Jobs never touch the Harness directly.  Each job records its work
//     (table selection, points, observed counter deltas, its busiest trace)
//     into a private per-job op buffer via the PointSink it is handed.
//   * wait() is the merge barrier: after all jobs finish, the buffered ops
//     are replayed through the ordinary serial Harness methods on the
//     calling thread, in submission order — completion order is irrelevant.
//   * Observation (--trace/--counters) attaches per job: the worker
//     installs a thread-local report::BenchObserver around the job, and the
//     merge folds each job's pending counter deltas and busiest trace into
//     the harness observer in submission order, which reproduces the serial
//     fold (including the busiest-run-wins, ties-to-newer trace rule)
//     exactly.  See docs/OBSERVABILITY.md.
//   * A job that fails (PointSink::fail, or any escaped exception) is
//     reported at the merge barrier in submission order, after the ops of
//     every earlier job have been merged — again matching what a serial run
//     would have produced before dying.
//
// Jobs must capture their inputs by value (or reference shared *immutable*
// state such as a pre-built graph); per-point RNG comes from explicit seeds,
// never from a stream shared across jobs.
//
// One pool serves every figure of a bench/suite run.  A figure submits its
// points and drains the pool into its own Harness before it returns:
//
//   void fig0x_...(bench::Harness& h, bench::SweepPool& pool) {
//     for (int t : threads) {
//       pool.submit([=](bench::PointSink& s) {
//         s.table("STREAM");                   // table/add mirror Harness
//         auto r = run_kernel(t);
//         s.add("emu", t, r.mb_per_sec, {{"sim_ms", r.sim_ms}});
//       });
//     }
//     pool.wait(h);                            // merge barrier
//   }
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "report/json.hpp"
#include "sim/trace.hpp"

namespace emusim::report {
class BenchObserver;
}

namespace emusim::bench {

/// Per-job recorder mirroring the Harness point API.  Only the job that was
/// handed it may use it, only for the duration of the job.
class PointSink {
 public:
  /// Start (or re-select) a display table, as Harness::table.
  void table(const std::string& title, int precision = 1);

  /// Record one measurement, as Harness::add / add_labeled.
  void add(const std::string& series, double x, double y,
           std::vector<std::pair<std::string, double>> extra = {});
  void add_labeled(const std::string& series, const std::string& label,
                   double x, double y,
                   std::vector<std::pair<std::string, double>> extra = {});

  /// Abort the sweep: the failure is reported (FAIL: <msg>, exit 1) at the
  /// merge barrier, in submission order, exactly where a serial run would
  /// have stopped.
  [[noreturn]] void fail(const std::string& msg);

 private:
  friend class SweepPool;

  /// One buffered harness interaction, replayed verbatim at the merge
  /// barrier.  kTrace carries a whole job's observation epilogue: its run
  /// count and (when tracing) its busiest retained trace.
  struct Op {
    enum class Kind { kTable, kAdd, kPending, kTrace };
    Kind kind = Kind::kAdd;
    std::string name;   ///< kTable: title; kAdd: series
    std::string label;  ///< kAdd only
    int precision = 1;  ///< kTable only
    double x = 0.0;
    double y = 0.0;
    std::vector<std::pair<std::string, double>> extra;
    report::Json json;   ///< kPending: one counter-delta blob
    sim::Tracer tracer;  ///< kTrace: the job's busiest trace
    int nodelets = 0;    ///< kTrace: 0 = job saw no traced machine
    int runs = 0;        ///< kTrace: machine runs under the job observer
  };

  PointSink(std::vector<Op>* ops, report::BenchObserver* obs)
      : ops_(ops), obs_(obs) {}
  /// Move counter deltas pending on the per-job observer into the op
  /// buffer, preserving their position relative to add() calls.
  void drain_observer();

  std::vector<Op>* ops_;
  report::BenchObserver* obs_;
};

/// Fixed-size worker pool executing point jobs with deterministic,
/// submission-ordered merge into a Harness.  Worker count is the --jobs
/// flag, defaulting to hardware_concurrency; --trace/--counters make every
/// job run under its own observer.  --jobs 1 still runs jobs on one worker
/// thread, so serial and parallel runs exercise the same code path.
class SweepPool {
 public:
  explicit SweepPool(const Options& opt);
  /// Joins workers.  Jobs submitted but never wait()ed are executed and
  /// discarded, not merged — call wait() before done().
  ~SweepPool();
  SweepPool(const SweepPool&) = delete;
  SweepPool& operator=(const SweepPool&) = delete;

  /// Enqueue one point job.  Submission order is merge order.
  void submit(std::function<void(PointSink&)> job);

  /// Merge barrier: block until every submitted job has run, then replay
  /// all op buffers through `h` in submission order.  On the first failed
  /// job (in submission order) reports via Harness::fail after merging
  /// every earlier job — process exits 1, like a serial failure.  May be
  /// called multiple times; the pool is reusable afterwards.
  void wait(Harness& h);

  /// As wait(), but on failure returns false with the first failed job's
  /// message in *err instead of exiting — the unit-testable core of wait().
  bool drain(Harness& h, std::string* err);

  int jobs() const { return jobs_; }

 private:
  struct Slot {
    std::function<void(PointSink&)> fn;
    std::vector<PointSink::Op> ops;
    std::string error;
    bool failed = false;
  };

  void worker();
  void run_one(Slot* slot);
  static void replay(Harness& h, Slot& slot);

  const Options opt_;
  int jobs_ = 1;
  std::mutex mu_;
  std::condition_variable cv_work_;  ///< workers: a job or stop is available
  std::condition_variable cv_done_;  ///< wait(): a job completed
  std::deque<Slot> slots_;           ///< deque: stable refs while growing
  std::size_t next_run_ = 0;   ///< next slot index a worker should execute
  std::size_t completed_ = 0;  ///< slots finished (any order)
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace emusim::bench
