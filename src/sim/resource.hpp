// Contention primitives built on the Engine.
//
// FifoServer — a single work-conserving server with an analytic FIFO queue.
//   Instead of materializing a waiter list, the server tracks the time at
//   which it next becomes free; an arrival at time t begins service at
//   max(t, next_free) and departs after its service time.  This is exact for
//   FIFO order and makes each access O(log n) (one event), which matters
//   when tens of millions of memory operations flow through a channel.
//
// RateGate — a FifoServer with a fixed per-item service interval; models
//   throughput-capped pipelines such as the Emu migration engine.
//
// Semaphore — counting semaphore with FIFO waiters; models finite thread
//   slots (64 threadlets per Gossamer core) and line-fill buffers (MLP).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>

#include "sim/engine.hpp"

namespace emusim::sim {

class FifoServer {
 public:
  explicit FifoServer(Engine& eng) : eng_(&eng) {}

  /// Awaitable: queue for the server, hold it for `service`, resume at the
  /// departure time.  FIFO among callers.
  auto access(Time service) {
    struct Awaiter {
      FifoServer& srv;
      Time service;
      Time depart = 0;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        depart = srv.post(service);
        srv.eng_->schedule(depart, h);
      }
      /// Resumes with the departure time (== now()).
      Time await_resume() const noexcept { return depart; }
    };
    return Awaiter{*this, service};
  }

  /// Account for a request without suspending anyone (posted/fire-and-forget
  /// operations, e.g. stores that are not on the critical path).  Returns
  /// the departure time.
  Time post(Time service) {
    EMUSIM_CHECK(service >= 0);
    const Time now = eng_->now();
    const Time start = next_free_ > now ? next_free_ : now;
    next_free_ = start + service;
    busy_ += service;
    ++requests_;
    return next_free_;
  }

  /// Total service time accumulated (for utilization accounting).
  Time busy_time() const { return busy_; }
  std::uint64_t requests() const { return requests_; }

 private:
  Engine* eng_;
  Time next_free_ = 0;
  Time busy_ = 0;
  std::uint64_t requests_ = 0;
};

/// Throughput-capped pipeline: items pass through one at a time at a fixed
/// rate, then experience an additional pipeline latency that overlaps with
/// later items.  Models the Emu migration engine (N migrations/sec with a
/// 1–2 us in-flight latency).
class RateGate {
 public:
  RateGate(Engine& eng, double items_per_sec, Time pipeline_latency)
      : server_(eng),
        eng_(&eng),
        interval_(interval_from_rate(items_per_sec)),
        latency_(pipeline_latency) {}

  /// Awaitable: resume after queueing for a slot plus the pipeline latency.
  auto pass() {
    struct Awaiter {
      RateGate& gate;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        const Time depart = gate.server_.post(gate.interval_);
        gate.eng_->schedule(depart + gate.latency_, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  std::uint64_t items() const { return server_.requests(); }
  Time busy_time() const { return server_.busy_time(); }

 private:
  FifoServer server_;
  Engine* eng_;
  Time interval_;
  Time latency_;
};

class Semaphore {
 public:
  Semaphore(Engine& eng, std::int64_t count) : eng_(&eng), count_(count) {
    EMUSIM_CHECK(count >= 0);
  }

  /// Awaitable: acquire one unit, waiting FIFO if none are available.
  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  bool try_acquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  /// Release one unit.  If a coroutine is waiting, the unit transfers to it
  /// directly and it is scheduled to resume at the current time (via the
  /// engine's zero-delay FIFO lane — a grant never touches the heap).
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      eng_->schedule_now(h);
    } else {
      ++count_;
    }
  }

  std::int64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine* eng_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace emusim::sim
