#include "sweep_pool.hpp"

#include <cassert>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "report/observe.hpp"

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

SweepPool::SweepPool(const Options& opt) : opt_(opt) {
  const unsigned hc = std::thread::hardware_concurrency();
  jobs_ = opt_.jobs > 0 ? opt_.jobs : (hc == 0 ? 1 : static_cast<int>(hc));
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
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [this] { return stop_ || next_run_ < slots_.size(); });
      if (next_run_ >= slots_.size()) return;  // stop, queue drained
      slot = &slots_[next_run_++];  // deque: stable across later push_backs
    }
    run_one(slot);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++completed_;
    }
    cv_done_.notify_all();
  }
}

void SweepPool::run_one(Slot* slot) {
  // Per-job observation: the observer installs itself thread-locally on
  // this worker, so it sees exactly the machines this job constructs.  It
  // is configured like the harness observer but never writes the trace
  // itself — the retained trace is handed to the merge via a kTrace op.
  const std::unique_ptr<report::BenchObserver> obs = make_observer(opt_);
  PointSink sink(&slot->ops, obs.get());
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

void SweepPool::replay(Harness& h, Slot& slot) {
  report::BenchObserver* main_obs = h.observer();
  for (PointSink::Op& op : slot.ops) {
    switch (op.kind) {
      case PointSink::Op::Kind::kTable:
        h.table(op.name, op.precision);
        break;
      case PointSink::Op::Kind::kAdd:
        h.add_labeled(op.name, op.label, op.x, op.y, std::move(op.extra));
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

bool SweepPool::drain(Harness& h, std::string* err) {
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
    replay(h, slot);
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

void SweepPool::wait(Harness& h) {
  std::string err;
  if (!drain(h, &err)) h.fail(err);
}

}  // namespace emusim::bench
