#include "sweep_pool.hpp"

#include <cassert>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>

#include "bench_util.hpp"
#include "report/observe.hpp"
#include "sim/random.hpp"

namespace emusim::bench {

namespace {

/// Thrown by PointSink::fail to unwind the job; caught by the worker and
/// reported at the merge barrier.  Internal: benches never see it.
struct SweepError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace

void PointSink::table(const std::string& title, int precision) {
  Op op;
  op.kind = Op::Kind::kTable;
  op.name = title;
  op.precision = precision;
  ops_->push_back(std::move(op));
}

void PointSink::add(const std::string& series, double x, double y,
                    std::vector<std::pair<std::string, double>> extra) {
  add_labeled(series, "", x, y, std::move(extra));
}

void PointSink::add_labeled(const std::string& series,
                            const std::string& label, double x, double y,
                            std::vector<std::pair<std::string, double>> extra) {
  // Serial Harness::add absorbs the counter deltas of every machine that
  // finished since the previous add; buffering them just before this add op
  // reproduces that attribution at replay.
  drain_observer();
  Op op;
  op.kind = Op::Kind::kAdd;
  op.name = series;
  op.label = label;
  op.x = x;
  op.y = y;
  op.extra = std::move(extra);
  ops_->push_back(std::move(op));
}

void PointSink::fail(const std::string& msg) { throw SweepError(msg); }

void PointSink::drain_observer() {
  if (obs_ == nullptr || !obs_->counters()) return;
  for (auto& delta : obs_->take_pending_counters()) {
    Op op;
    op.kind = Op::Kind::kPending;
    op.json = std::move(delta);
    ops_->push_back(std::move(op));
  }
}

SweepPool::SweepPool(Harness& h) : h_(h), jobs_(h.jobs()) {
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker(); });
  }
}

SweepPool::~SweepPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    if (!slots_.empty()) {
      // Submitted jobs that were never wait()ed still execute below (the
      // workers drain the queue before joining), but their results are
      // silently discarded — almost certainly a missing pool.wait().
      std::fprintf(stderr,
                   "SweepPool: destroyed with %zu submitted job(s) never "
                   "wait()ed; their results are discarded\n",
                   slots_.size());
      assert(!"SweepPool destroyed without wait()");
    }
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void SweepPool::submit(std::function<void(PointSink&)> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    slots_.push_back(Slot{std::move(job), {}, {}, false});
  }
  cv_work_.notify_one();
}

void SweepPool::worker() {
  for (;;) {
    Slot* slot = nullptr;
    std::size_t index = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [this] { return stop_ || next_run_ < slots_.size(); });
      if (next_run_ >= slots_.size()) return;  // stop, queue drained
      index = next_run_++;
      slot = &slots_[index];  // deque: stable across later push_backs
    }
    run_one(slot, index);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++completed_;
    }
    cv_done_.notify_all();
  }
}

void SweepPool::run_one(Slot* slot, std::size_t index) {
  // Per-job observation: the observer installs itself thread-locally on
  // this worker, so it sees exactly the machines this job constructs.  It
  // is configured like the harness observer but never writes the trace
  // itself — the retained trace is handed to the merge via a kTrace op.
  std::unique_ptr<report::BenchObserver> obs;
  const Options& o = h_.opt();
  if (!o.trace_path.empty() || o.counters) {
    report::BenchObserver::Options bo;
    bo.counters = o.counters;
    bo.trace_path = o.trace_path;
    bo.trace_capacity = static_cast<std::size_t>(o.trace_cap);
    obs = std::make_unique<report::BenchObserver>(bo);
  }
  std::uint64_t sm = 0x53EEDF00D0000000ULL + index;
  PointSink sink(&slot->ops, obs.get(), sim::splitmix64(sm));
  try {
    slot->fn(sink);
  } catch (const SweepError& e) {
    slot->failed = true;
    slot->error = e.what();
  } catch (const std::exception& e) {
    slot->failed = true;
    slot->error = std::string("unhandled exception in sweep job: ") + e.what();
  }
  if (obs != nullptr) {
    // Machines finished after the job's last add stay pending into the next
    // replayed add (or finish_observe's "unattributed"), as in serial runs.
    sink.drain_observer();
    PointSink::Op op;
    op.kind = PointSink::Op::Kind::kTrace;
    op.tracer = obs->take_trace();
    op.nodelets = obs->last_num_nodelets();
    op.runs = obs->runs();
    slot->ops.push_back(std::move(op));
  }
  slot->fn = nullptr;  // release captures eagerly
}

void SweepPool::replay(Slot& slot) {
  report::BenchObserver* main_obs = h_.observer();
  for (PointSink::Op& op : slot.ops) {
    switch (op.kind) {
      case PointSink::Op::Kind::kTable:
        h_.table(op.name, op.precision);
        break;
      case PointSink::Op::Kind::kAdd:
        h_.add_labeled(op.name, op.label, op.x, op.y, std::move(op.extra));
        break;
      case PointSink::Op::Kind::kPending:
        if (main_obs != nullptr) main_obs->inject_pending(std::move(op.json));
        break;
      case PointSink::Op::Kind::kTrace:
        if (main_obs != nullptr) {
          main_obs->offer_trace(std::move(op.tracer), op.nodelets, op.runs);
        }
        break;
    }
  }
  slot.ops.clear();
}

bool SweepPool::drain(std::string* err) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [this] { return completed_ == slots_.size(); });
  }
  // All workers are idle now; merge on the calling thread in submission
  // order.  A failed job is reported only after every earlier job's ops
  // have been merged — the harness state matches a serial run that died at
  // the same point.
  bool ok = true;
  for (auto& slot : slots_) {
    if (!ok) break;
    replay(slot);
    if (slot.failed) {
      if (err != nullptr) *err = slot.error;
      ok = false;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  slots_.clear();
  next_run_ = 0;
  completed_ = 0;
  return ok;
}

void SweepPool::wait() {
  std::string err;
  if (!drain(&err)) h_.fail(err);
}

}  // namespace emusim::bench
