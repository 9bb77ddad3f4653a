// EngineSet: conservative windowed schedule over sharded Engines.
//
// One Engine per shard (one per Emu node card).  Shards advance together
// through time windows of width `lookahead` — the minimum latency of any
// cross-shard interaction, so an event executing inside a window can only
// schedule onto another shard at or beyond the window end.  Within a window
// each shard processes its own queue in turn; the cross-shard traffic it
// generates goes into per-(src,dst) mailboxes, which are drained into the
// destination queues before the next window opens.  Every shard runs on the
// calling thread: point-level parallelism (the bench harness's --jobs) is
// the only host parallelism.
//
// Adaptive window planning: a window always opens at the earliest pending
// event across all shards rather than marching fixed-width windows, so
// event-free gaps are skipped in one hop.  Mailbox drains are batched per
// destination via per-source touched lists, so a drain costs O(messages),
// not O(shards^2).
//
// The event order is a function of the machine configuration alone:
//   * per-shard seq counters — intra-shard tie order is the serial engine's
//     insertion order;
//   * a canonical mailbox drain order — for each destination, messages are
//     gathered source-major, stable-sorted by timestamp, and injected in
//     that order, so the destination's seq assignment (and therefore all
//     downstream tie-breaking) is reproducible;
//   * one planning step per window — drain, hook, then the next window,
//     so the window sequence is a pure function of simulation state.
//
// After every drain the set runs a caller-installed hook (the Emu machine
// merges per-shard trace staging there).
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
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

  std::size_t shards() const { return engines_.size(); }
  Engine& shard(std::size_t s) { return engines_[s]; }
  const Engine& shard(std::size_t s) const { return engines_[s]; }

  /// Queue a cross-shard coroutine resumption from shard `src`.  `when`
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

  /// Install a hook run between windows, after the mailbox drain (and once
  /// before the first window).  The Emu machine merges per-shard trace
  /// staging here.
  void set_window_hook(SmallFn hook) { window_hook_ = std::move(hook); }

  /// Run all shards to completion under windows of width `lookahead`.  A
  /// single shard degenerates to the serial Engine::run() — exactly the old
  /// engine, no windowing.  On return every shard's clock reads the same
  /// global final time.
  Time run(Time lookahead);

  /// Windows opened by the last run() (0 after an S==1 serial run).
  std::uint64_t windows() const { return windows_; }

 private:
  struct Msg {
    Time when;
    std::coroutine_handle<> h;  ///< non-null: resume this coroutine
    SmallFn fn;                 ///< otherwise: invoke this callback
  };

  std::vector<Msg>& outbox(std::size_t src, std::size_t dst) {
    return outboxes_[src * engines_.size() + dst];
  }

  /// The per-window coordination step: drain all mailboxes into
  /// destination queues in canonical order, fire the window hook, then
  /// pick the next window [t_min, t_min + lookahead) — fast-forwarding over
  /// any event-free gap — or declare the run finished.
  void plan();

  std::deque<Engine> engines_;         ///< Engine is pinned (non-movable)
  std::vector<std::vector<Msg>> outboxes_;  ///< [src * S + dst]
  std::vector<std::vector<std::size_t>> touched_;  ///< per src: dsts with
                                                   ///< non-empty outbox
  std::vector<std::vector<Msg>> staging_;  ///< per-dst drain staging
  std::vector<std::size_t> touched_dsts_;  ///< dsts staged by this drain
  SmallFn window_hook_;
  Time lookahead_ = 0;  ///< set per run()
  Time end_ = 0;        ///< current window end, set by plan()
  bool done_ = false;
  std::uint64_t windows_ = 0;
};

}  // namespace emusim::sim
