#include "sim/shard.hpp"

#include <algorithm>

namespace emusim::sim {

EngineSet::EngineSet(std::size_t shards)
    : engines_(shards),
      outboxes_(shards * shards),
      touched_(shards),
      staging_(shards) {
  EMUSIM_CHECK(shards >= 1);
}

void EngineSet::plan() {
  const std::size_t S = engines_.size();
  // Drain mailboxes in canonical order: per destination, gather messages
  // source-major, stable-sort by timestamp (preserving source-major order
  // within a timestamp), inject.  The destination engine assigns seq
  // numbers in this order, which fixes all downstream tie-breaking.  Only
  // touched (src,dst) pairs are visited, so the drain is O(messages), not
  // O(S^2).
  touched_dsts_.clear();
  for (std::size_t src = 0; src < S; ++src) {
    auto& tl = touched_[src];
    for (const std::size_t dst : tl) {
      auto& box = outbox(src, dst);
      auto& stage = staging_[dst];
      if (stage.empty()) touched_dsts_.push_back(dst);
      for (auto& m : box) {
        // Lookahead violation guard: anything posted during the window
        // that just ran must land at or beyond its end.
        EMUSIM_CHECK(m.when >= end_);
        stage.push_back(std::move(m));
      }
      box.clear();
    }
    tl.clear();
  }
  for (const std::size_t dst : touched_dsts_) {
    auto& stage = staging_[dst];
    std::stable_sort(stage.begin(), stage.end(),
                     [](const Msg& a, const Msg& b) { return a.when < b.when; });
    Engine& e = engines_[dst];
    for (auto& m : stage) {
      if (m.h) {
        e.inject(m.when, m.h);
      } else {
        e.inject_call(m.when, std::move(m.fn));
      }
    }
    stage.clear();
  }
  if (window_hook_) window_hook_();
  // Next window starts at the earliest pending event across all shards:
  // event-free stretches are skipped in one hop instead of being marched
  // through in lookahead-sized steps.
  bool any = false;
  Time t_min = 0;
  for (const Engine& e : engines_) {
    if (e.idle()) continue;
    const Time t = e.next_when();
    if (!any || t < t_min) t_min = t;
    any = true;
  }
  if (!any) {
    done_ = true;
    return;
  }
  EMUSIM_CHECK(t_min + lookahead_ > end_);  // windows advance monotonically
  end_ = t_min + lookahead_;
  ++windows_;
}

Time EngineSet::run(Time lookahead) {
  const std::size_t S = engines_.size();
  if (S == 1) {
    // Exactly the serial engine: no windows, no hook.
    return engines_[0].run();
  }
  EMUSIM_CHECK(lookahead > 0);
  lookahead_ = lookahead;
  end_ = 0;
  done_ = false;
  windows_ = 0;
  for (;;) {
    plan();
    if (done_) break;
    for (Engine& e : engines_) e.run_window(end_);
  }
  // Bring every shard to the one global final time, so post-run now()
  // reads (counters, observers) are shard-independent.
  Time final_t = 0;
  for (const Engine& e : engines_) final_t = std::max(final_t, e.now());
  for (Engine& e : engines_) e.advance_to(final_t);
  return final_t;
}

}  // namespace emusim::sim
