#include "sim/shard.hpp"

#include <algorithm>

namespace emusim::sim {

EngineSet::EngineSet(std::size_t shards) : engines_(shards) {
  EMUSIM_CHECK(shards >= 1);
}

void EngineSet::plan() {
  // Drain the mailbox in canonical order: stable-sort by timestamp
  // (preserving the source-major posting order within a timestamp), then
  // deliver.  Each destination engine queues its messages in this order,
  // which fixes all downstream tie-breaking.
  std::stable_sort(mail_.begin(), mail_.end(),
                   [](const Msg& a, const Msg& b) { return a.when < b.when; });
  for (Msg& m : mail_) {
    // Lookahead violation guard: anything posted during the window that
    // just ran must land at or beyond its end.
    EMUSIM_CHECK(m.when >= end_);
    Engine& e = engines_[m.dst];
    if (m.h) {
      e.schedule(m.when, m.h);
    } else {
      e.call_at(m.when, std::move(m.fn));
    }
  }
  mail_.clear();
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
