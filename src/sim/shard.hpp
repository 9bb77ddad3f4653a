// EngineSet: conservative windowed parallel DES over sharded Engines.
//
// One Engine per shard (one per Emu node card).  Shards advance together
// through time windows of width `lookahead` — the minimum latency of any
// cross-shard interaction, so an event executing inside a window can only
// schedule onto another shard at or beyond the window end.  Within a window
// every shard processes its own queue independently; the cross-shard
// traffic it generates goes into per-(src,dst) mailboxes, which the window
// barrier drains into the destination queues before the next window opens.
//
// Adaptive window planning: a window always opens at the earliest pending
// event across all shards rather than marching fixed-width windows, so
// event-free gaps are skipped in one hop.  Mailbox drains are batched per
// destination via per-source touched lists, so a drain costs O(messages),
// not O(shards^2).
//
// Determinism contract: the shard count and the shard of every event are
// functions of the machine configuration alone, never of the worker-thread
// count.  Threads only decide *which OS thread* executes a shard's window,
// so `threads = 1` and `threads = N` produce byte-identical simulations.
// Three pieces make that hold:
//   * per-shard seq counters — intra-shard tie order is the serial engine's
//     insertion order, untouched by parallelism;
//   * a canonical mailbox drain order — for each destination, messages are
//     gathered source-major, stable-sorted by timestamp, and injected in
//     that order, so the destination's seq assignment (and therefore all
//     downstream tie-breaking) is reproducible;
//   * single-threaded planning — every drain/plan step runs on exactly one
//     thread at a barrier completion, so the window sequence is a pure
//     function of simulation state.
//
// The window barrier also runs a caller-installed hook (the Emu machine
// merges per-shard trace staging there) on exactly one thread,
// synchronized-with all workers.
//
// Worker threads are spawned once per thread count and parked between
// run() invocations, so a sweep point that calls run() repeatedly (e.g.
// per-batch serving loops) reuses the same pool with the same
// thread->shard assignment instead of paying spawn/join per run.
#pragma once

#include <barrier>
#include <condition_variable>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace emusim::sim {

class EngineSet {
 public:
  explicit EngineSet(std::size_t shards);
  EngineSet(const EngineSet&) = delete;
  EngineSet& operator=(const EngineSet&) = delete;
  ~EngineSet();

  std::size_t shards() const { return engines_.size(); }
  Engine& shard(std::size_t s) { return engines_[s]; }
  const Engine& shard(std::size_t s) const { return engines_[s]; }

  /// Queue a cross-shard coroutine resumption.  Single-writer discipline:
  /// during a window only shard `src`'s worker may post from `src`.  `when`
  /// must respect the lookahead (>= the end of the posting window); the
  /// drain checks it.
  void post(std::size_t src, std::size_t dst, Time when,
            std::coroutine_handle<> h) {
    auto& box = outbox(src, dst);
    if (box.empty()) touched_[src].push_back(dst);
    box.push_back(Msg{when, h, SmallFn{}});
  }

  /// Queue a cross-shard callback.
  void post_call(std::size_t src, std::size_t dst, Time when, SmallFn fn) {
    auto& box = outbox(src, dst);
    if (box.empty()) touched_[src].push_back(dst);
    box.push_back(Msg{when, {}, std::move(fn)});
  }

  /// Install a hook run on one thread at every window barrier, after the
  /// mailbox drain (and once before the first window).  The Emu machine
  /// merges per-shard trace staging here.  Invoked repeatedly; must be
  /// reentrant across windows but is never run concurrently with shard
  /// execution.
  void set_window_hook(SmallFn hook) { window_hook_ = std::move(hook); }

  /// Run all shards to completion under windows of width `lookahead`,
  /// using up to `threads` workers (clamped to [1, shards()]).  A single
  /// shard degenerates to the serial Engine::run() — exactly the old
  /// engine, no windowing.  On return every shard's clock reads the same
  /// global final time.
  Time run(Time lookahead, int threads);

  /// Windows opened by the last run() (0 after an S==1 serial run).
  std::uint64_t windows() const { return windows_; }

 private:
  struct Msg {
    Time when;
    std::coroutine_handle<> h;  ///< non-null: resume this coroutine
    SmallFn fn;                 ///< otherwise: invoke this callback
  };

  /// Barrier completion step (std::barrier needs a noexcept type).
  struct Plan {
    EngineSet* set;
    void operator()() noexcept { set->plan(); }
  };

  std::vector<Msg>& outbox(std::size_t src, std::size_t dst) {
    return outboxes_[src * engines_.size() + dst];
  }

  /// The per-window coordination step, run on exactly one thread: drain
  /// all mailboxes into destination queues in canonical order, fire the
  /// window hook, then pick the next window [t_min, t_min + lookahead) —
  /// fast-forwarding over any event-free gap — or declare the run
  /// finished.
  void plan() noexcept;

  /// One worker's share of a run: barrier loop until done_.
  void worker_loop(std::size_t w);

  /// (Re)build the barrier and parked threads for `T` workers.
  void ensure_pool(int T);
  void stop_pool();

  std::deque<Engine> engines_;         ///< Engine is pinned (non-movable)
  std::vector<std::vector<Msg>> outboxes_;  ///< [src * S + dst]
  std::vector<std::vector<std::size_t>> touched_;  ///< per src: dsts with
                                                   ///< non-empty outbox
  std::vector<std::vector<Msg>> staging_;  ///< per-dst drain staging
  std::vector<std::size_t> touched_dsts_;  ///< dsts staged by this drain
  SmallFn window_hook_;
  Time lookahead_ = 0;  ///< set per run()
  Time end_ = 0;        ///< current window end, published by plan()
  bool done_ = false;
  std::uint64_t windows_ = 0;

  // Persistent worker pool (built lazily on the first parallel run, reused
  // across run() calls while the thread count stays the same).
  std::vector<std::jthread> pool_;
  std::unique_ptr<std::barrier<Plan>> bar_;
  int pool_T_ = 0;  ///< thread count the pool/barrier were built for
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  std::uint64_t epoch_ = 0;  ///< bumped per parallel run to wake the pool
  int done_count_ = 0;       ///< workers finished with the current epoch
  bool shutdown_ = false;
};

}  // namespace emusim::sim
