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

EngineSet::~EngineSet() { stop_pool(); }

void EngineSet::plan() noexcept {
  const std::size_t S = engines_.size();
  // Drain mailboxes in canonical order: per destination, gather messages
  // source-major, stable-sort by timestamp (preserving source-major order
  // within a timestamp), inject.  The destination engine assigns seq
  // numbers in this order, which fixes all downstream tie-breaking
  // independent of worker-thread count.  Only touched (src,dst) pairs are
  // visited, so the drain is O(messages), not O(S^2).
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

void EngineSet::worker_loop(std::size_t w) {
  const std::size_t S = engines_.size();
  const std::size_t T = static_cast<std::size_t>(pool_T_);
  for (;;) {
    bar_->arrive_and_wait();  // completion step runs plan()
    if (done_) return;
    for (std::size_t s = w; s < S; s += T) engines_[s].run_window(end_);
  }
}

void EngineSet::ensure_pool(int T) {
  if (pool_T_ == T) return;
  stop_pool();
  pool_T_ = T;
  bar_ = std::make_unique<std::barrier<Plan>>(T, Plan{this});
  // Workers park between runs and wake per epoch; worker 0 is the run()
  // caller and is not pooled.  Each thread starts from the epoch current
  // at its creation: a thread that reached mu_ before run() bumps the
  // epoch would otherwise take the previous run's epoch as new, run it a
  // second time, and wait alone on the barrier forever.
  pool_.reserve(static_cast<std::size_t>(T - 1));
  for (int w = 1; w < T; ++w) {
    pool_.emplace_back([this, w, seen = epoch_]() mutable {
      for (;;) {
        {
          std::unique_lock lock(mu_);
          cv_start_.wait(lock, [&] { return shutdown_ || epoch_ > seen; });
          if (shutdown_) return;
          seen = epoch_;
        }
        worker_loop(static_cast<std::size_t>(w));
        {
          std::lock_guard lock(mu_);
          ++done_count_;
        }
        cv_done_.notify_one();
      }
    });
  }
}

void EngineSet::stop_pool() {
  if (!pool_.empty()) {
    {
      std::lock_guard lock(mu_);
      shutdown_ = true;
    }
    cv_start_.notify_all();
    pool_.clear();  // jthread joins
    {
      std::lock_guard lock(mu_);
      shutdown_ = false;
    }
  }
  pool_T_ = 0;
  bar_.reset();
}

Time EngineSet::run(Time lookahead, int threads) {
  const std::size_t S = engines_.size();
  if (S == 1) {
    // Exactly the serial engine: no windows, no barriers, no hook.
    return engines_[0].run();
  }
  EMUSIM_CHECK(lookahead > 0);
  lookahead_ = lookahead;
  end_ = 0;
  done_ = false;
  windows_ = 0;
  int T = threads;
  if (T < 1) T = 1;
  if (T > static_cast<int>(S)) T = static_cast<int>(S);
  if (T == 1) {
    for (;;) {
      plan();
      if (done_) break;
      for (Engine& e : engines_) e.run_window(end_);
    }
  } else {
    // T workers (this thread is worker 0) separated by one barrier per
    // window; the barrier's completion step runs plan() on exactly one
    // thread, synchronized-with every worker.  Pool threads persist across
    // run() calls with a stable thread->shard assignment.
    ensure_pool(T);
    {
      std::lock_guard lock(mu_);
      ++epoch_;
      done_count_ = 0;
    }
    cv_start_.notify_all();
    worker_loop(0);
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] { return done_count_ == T - 1; });
  }
  // Bring every shard to the one global final time, so post-run now()
  // reads (counters, observers) are shard-independent.
  Time final_t = 0;
  for (const Engine& e : engines_) final_t = std::max(final_t, e.now());
  for (Engine& e : engines_) e.advance_to(final_t);
  return final_t;
}

}  // namespace emusim::sim
