// The cache-based comparison machine (Sandy Bridge / Haswell Xeon model).
//
// Worker threads are coroutines bound to cores.  A load probes the shared
// LLC; a hit costs the blended hit latency, a miss takes a line-fill buffer
// (the per-core MLP limit), fetches the full 64-byte line from the line's
// home DDR channel (row-buffer model in mem/dram), and installs it in the
// cache.  A per-core stream prefetcher watches the demand line sequence and
// runs ahead of sequential streams, occupying channel bandwidth but hiding
// latency.  Stores are posted (write-allocate + write-back, or non-temporal
// for streaming kernels).
//
// The fork-join runtime is modeled as a central task pool: workers pull the
// next task when free, paying a per-task scheduling overhead — cilk_for
// corresponds to many cheap chunks, cilk_spawn with grain g to n/g tasks at
// the (higher) spawn/steal overhead, and an MKL-like static schedule to one
// pre-sized chunk per worker at zero pull overhead.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "mem/dram.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/op.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "xeon/cache.hpp"
#include "xeon/config.hpp"

namespace emusim::xeon {

class Machine;

struct XeonStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t nt_stores = 0;
  std::uint64_t tasks_run = 0;
};

/// Per-core state: the compute pipeline (FIFO when hyperthreads share the
/// core), line-fill buffers, and the prefetcher's stream detector.
class Core {
 public:
  Core(sim::Engine& eng, const SystemConfig& cfg)
      : compute(eng), lfb_free_(cfg.lfb_per_core) {}

  sim::FifoServer compute;

  bool lfb_try_acquire() {
    if (lfb_free_ > 0) {
      --lfb_free_;
      return true;
    }
    return false;
  }
  void lfb_wait(sim::SmallFn fn) { lfb_waiters_.push_back(std::move(fn)); }
  void lfb_release() {
    if (!lfb_waiters_.empty()) {
      auto fn = std::move(lfb_waiters_.front());
      lfb_waiters_.pop_front();
      fn();  // the waiter inherits the buffer
    } else {
      ++lfb_free_;
    }
  }

  // Prefetch stream detectors: real stream prefetchers track several
  // concurrent streams per core (STREAM alone interleaves two source
  // streams; hyperthreads add more).
  struct Stream {
    std::uint64_t last_line = ~0ULL;
    int run_length = 0;
    std::uint64_t stamp = 0;  ///< stream_clock at the last match
  };
  static constexpr int kNumStreams = 16;
  Stream streams[kNumStreams];
  std::uint64_t stream_clock = 0;

 private:
  int lfb_free_;
  std::deque<sim::SmallFn> lfb_waiters_;
};

class Machine {
 public:
  explicit Machine(const SystemConfig& cfg);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  sim::Engine& engine() { return eng_; }
  const SystemConfig& cfg() const { return cfg_; }
  /// One core clock period, cached: cfg().cycle() divides on every call.
  Time cycle() const { return cycle_; }
  SetAssocCache& llc() { return llc_; }
  Core& core(int i) { return cores_[static_cast<std::size_t>(i)]; }

  mem::DramChannel& channel(int i) {
    return channels_[static_cast<std::size_t>(i)];
  }

  mem::DramChannel& channel_of(std::uint64_t addr) {
    const auto idx = (addr / cfg_.channel_interleave_bytes) %
                     static_cast<std::uint64_t>(cfg_.channels);
    return channels_[static_cast<std::size_t>(idx)];
  }

  /// Socket that owns a line (channels are interleaved round-robin across
  /// sockets) and the socket a core belongs to.
  int socket_of_addr(std::uint64_t addr) const {
    const auto ch = (addr / cfg_.channel_interleave_bytes) %
                    static_cast<std::uint64_t>(cfg_.channels);
    return static_cast<int>(ch % static_cast<std::uint64_t>(cfg_.sockets));
  }
  int socket_of_core(int core) const {
    return core / (cfg_.cores / cfg_.sockets);
  }

  /// The address as seen by the owning channel's DRAM: global addresses are
  /// interleaved across channels, so the channel-local image is compacted.
  /// Row-buffer state must be keyed on this, not the global address — a
  /// sequential stream fills an entire local row before moving on.
  std::uint64_t channel_local_addr(std::uint64_t addr) const {
    const std::uint64_t il = cfg_.channel_interleave_bytes;
    const std::uint64_t chunk = addr / il;
    return (chunk / static_cast<std::uint64_t>(cfg_.channels)) * il +
           addr % il;
  }

  /// Bump-allocate simulated physical memory (so kernels get realistic
  /// row/channel interleaving).
  std::uint64_t allocate(std::uint64_t bytes, std::uint64_t align = 64);

  XeonStats stats;

  // --- internals used by CpuContext ---------------------------------------
  /// Timing for a demand load at `addr`: schedules `h` when the data is
  /// usable.  Called from the load awaiter.
  void demand_load(int core, std::uint64_t addr, std::coroutine_handle<> h);
  /// Posted store with write-allocate + write-back semantics.
  void posted_store(int core, std::uint64_t addr);
  /// Posted non-temporal (streaming) store of a whole line.
  void posted_store_nt(std::uint64_t line_addr);

 private:
  void issue_fill(int core, std::uint64_t line, std::coroutine_handle<> h);
  void prefetch_advance(int core, std::uint64_t line);
  void install_line(std::uint64_t line, Time ready_at, bool dirty);

  SystemConfig cfg_;
  Time cycle_;
  sim::Engine eng_;
  SetAssocCache llc_;
  std::deque<mem::DramChannel> channels_;
  std::deque<Core> cores_;
  std::uint64_t brk_ = 0;
};

/// Handle through which kernel code running on a worker thread performs
/// timed operations.
class CpuContext {
 public:
  CpuContext(Machine& m, int core) : m_(&m), core_(core) {}

  Machine& machine() { return *m_; }
  int core() const { return core_; }

  /// Awaitable: `cycles` of computation on this core (FIFO-shared when
  /// several worker threads map to the same core).
  auto compute(std::uint64_t cycles) {
    return m_->core(core_).compute.access(static_cast<Time>(cycles) *
                                          m_->cycle());
  }

  /// Awaitable: blocking load of the line containing `addr`.
  auto load(std::uint64_t addr) {
    struct Awaiter {
      Machine& m;
      int core;
      std::uint64_t addr;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        m.demand_load(core, addr, h);
      }
      void await_resume() const noexcept {}
    };
    ++m_->stats.loads;
    return Awaiter{*m_, core_, addr};
  }

  /// Host-only hint: warm the host caches for a load of `addr` that comes
  /// soon.  No simulated effect (see SetAssocCache::prefetch).
  void host_prefetch(std::uint64_t addr) const { m_->llc().prefetch(addr); }

  /// Posted store (write-allocate, write-back).
  void store(std::uint64_t addr) {
    ++m_->stats.stores;
    m_->posted_store(core_, addr);
  }

  /// Posted streaming store of the whole line containing `addr` (used by
  /// STREAM: no RFO, no cache pollution).
  void store_nt(std::uint64_t addr) {
    ++m_->stats.nt_stores;
    m_->posted_store_nt(m_->llc().line_addr(addr));
  }

 private:
  Machine* m_;
  int core_;
};

/// A unit of work for the task-pool runtime.
using TaskFn = std::function<sim::Op<>(CpuContext&)>;

/// Run `tasks` on `threads` workers (round-robin over physical cores,
/// modeling hyperthreads beyond cfg.cores).  Each pull from the pool costs
/// `per_task_overhead_cycles` on the worker.  Returns elapsed time.
Time run_task_pool(Machine& m, int threads, std::vector<TaskFn> tasks,
                   int per_task_overhead_cycles);

namespace detail {

/// One batch worker: items begin, begin + stride, ... below end, in order
/// (a service thread drains its slice sequentially, so later items carry
/// queueing delay), then a countdown of the batch's live workers.
template <class OpFn>
sim::Task batch_worker(CpuContext ctx, std::size_t begin, std::size_t end,
                       std::size_t stride, const OpFn* op, int* pending,
                       std::coroutine_handle<>* waiter) {
  for (std::size_t i = begin; i < end; i += stride) {
    co_await (*op)(ctx, i);
  }
  if (--*pending == 0 && *waiter) {
    ctx.machine().engine().schedule_now(std::exchange(*waiter, {}));
  }
}

}  // namespace detail

/// Awaitable batch of the items [lo, hi) for an online driver:
/// nw = min(threads, hi - lo) workers, worker w on core w % cores taking
/// items lo + w, lo + w + nw, ...; `op(ctx, i)` returns the sim::Op<> for
/// item i.  Completes when the last worker ends.  Unlike run_task_pool it
/// does not run the engine, so the awaiting driver keeps its own clock.
template <class OpFn>
sim::Op<> run_batch(Machine& m, std::size_t lo, std::size_t hi, int threads,
                    OpFn op) {
  const auto nw =
      std::min<std::size_t>(static_cast<std::size_t>(threads), hi - lo);
  int pending = static_cast<int>(nw);
  std::coroutine_handle<> waiter;
  for (std::size_t w = 0; w < nw; ++w) {
    detail::batch_worker(CpuContext(m, static_cast<int>(w) % m.cfg().cores),
                         lo + w, hi, nw, &op, &pending, &waiter)
        .start();
  }
  struct Join {
    int& pending;
    std::coroutine_handle<>& waiter;
    bool await_ready() const noexcept { return pending == 0; }
    void await_suspend(std::coroutine_handle<> h) { waiter = h; }
    void await_resume() const noexcept {}
  };
  co_await Join{pending, waiter};
}

}  // namespace emusim::xeon
