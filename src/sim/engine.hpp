// Discrete-event simulation core.
//
// The Engine owns a timed event queue.  An event either resumes a suspended
// coroutine (the common case: a simulated thread waiting on a delay or a
// resource) or invokes a plain callback (used by machine components such as
// prefetchers).  Ties are broken by insertion order, so a simulation run is
// fully deterministic.
//
// The queue is allocation-free on the hot path:
//   * a queued event is a trivially-copyable 16-byte entry — (when, tagged
//     payload).  Coroutine resumptions pack the raw handle into the
//     payload word; callbacks park a SmallFn (inline small-object store,
//     heap fallback only for oversized captures) in a free-listed slot pool
//     and the payload carries the slot index.  Queue moves therefore
//     shuffle PODs and never touch a closure;
//   * entries sit in one monotone radix queue keyed on `when` (Ahuja et al.,
//     JACM 1990).  Simulated time never runs backwards, so every pending
//     `when` is at least `last_`, the time of the last pop.  Bucket b > 0
//     holds the entries whose `when` first differs from `last_` in bit
//     b - 1, so each entry of a lower bucket precedes every entry of a
//     higher one, and each bucket tracks its minimum: next_when() is O(1).
//     Bucket 0 holds the entries at exactly `last_`.  When it is empty, the
//     next pop moves `last_` to the lowest non-empty bucket's minimum and
//     files that bucket's entries into the buckets below it.  An entry only
//     ever moves down, so push and pop are O(1) amortised;
//   * buckets are contiguous vectors filled in push order, and a
//     redistribution keeps that order, so entries with equal `when` (which
//     always share a bucket) stay in insertion order and bucket 0 pops in
//     exactly (when, insertion) order.  Bucket 0 is a FIFO ring: zero-delay events —
//     yields, semaphore grants, sync wakeups, the bulk of spawn-tree
//     traffic — go straight into it.  Any other bucket that empties gives
//     back capacity beyond a small reserve, so storage follows the number
//     of pending events rather than its history.
//
// All coroutine resumptions go through the event queue — components never
// resume a coroutine synchronously from inside another coroutine.  This
// keeps stack depth bounded regardless of how many simulated threads wake
// each other.
#pragma once

#include <array>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/callback.hpp"

namespace emusim::sim {

class EngineSet;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Resume coroutine `h` at absolute time `when` (>= now()).
  void schedule(Time when, std::coroutine_handle<> h) {
    EMUSIM_CHECK(when >= now_);
    place(Entry{when, coro_payload(h)});
  }

  /// Resume coroutine `h` after `delay`.
  void schedule_in(Time delay, std::coroutine_handle<> h) {
    schedule(now_ + delay, h);
  }

  /// Resume coroutine `h` at the current time, after all already-queued
  /// events for this timestamp.  The explicit zero-delay entry point:
  /// producers that wake a peer "immediately" (semaphore grants, sync
  /// notifications) land straight in bucket 0's ring.
  void schedule_now(std::coroutine_handle<> h) {
    place(Entry{now_, coro_payload(h)});
  }

  /// Invoke `fn` at absolute time `when`.  Any callable `void()`; captures
  /// up to SmallFn::kInlineBytes are stored without allocating.
  template <class F>
  void call_at(Time when, F&& fn) {
    EMUSIM_CHECK(when >= now_);
    place(Entry{when, slot_payload(std::forward<F>(fn))});
  }

  /// Invoke `fn` after `delay`.
  template <class F>
  void call_in(Time delay, F&& fn) {
    call_at(now_ + delay, std::forward<F>(fn));
  }

  /// Process the earliest event.  Returns false when the queue is empty.
  bool step() { return step_before(kNever); }

  /// Run until no events remain.  Returns the final simulated time.
  Time run() {
    while (step()) {
    }
    return now_;
  }

  /// Process all events with a timestamp strictly before `end`, leaving the
  /// clock at the last processed event rather than bumping it to `end`.
  /// Building block for the windowed shard schedule (EngineSet): a shard
  /// executes one conservative time window, then the driver delivers the
  /// window's cross-shard messages with schedule() / call_at().  They carry
  /// timestamps >= `end`, so they land strictly in this shard's future.
  Time run_window(Time end) {
    while (step_before(end)) {
    }
    return now_;
  }

  /// Advance the clock to `t` without processing anything.  Used by the
  /// windowed driver to bring every shard to the same final time once all
  /// queues have drained, so post-run now() reads are shard-independent.
  void advance_to(Time t) {
    EMUSIM_CHECK(idle() || next_when() >= t);
    if (t > now_) now_ = t;
  }

  bool idle() const { return nonempty_ == 0; }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Host bytes the event queue's storage holds.
  std::size_t queue_host_bytes() const {
    std::size_t n = ring_.capacity();
    for (const std::vector<Entry>& v : buckets_) n += v.capacity();
    return n * sizeof(Entry);
  }

  /// Awaitable: suspend the current coroutine for `delay` simulated time.
  /// A delay of zero still round-trips through the event queue — behind
  /// every event already queued for now() — which is useful for yielding
  /// fairly to other ready work at the same timestamp.
  auto sleep(Time delay) {
    struct Awaiter {
      Engine& eng;
      Time delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        eng.schedule_in(delay, h);
      }
      void await_resume() const noexcept {}
    };
    EMUSIM_CHECK(delay >= 0);
    return Awaiter{*this, delay};
  }

  /// Awaitable: suspend until absolute time `when`.  A time already due
  /// continues at once without queueing an event (unlike sleep(0), it does
  /// not yield); a future one resumes at exactly `when`.
  auto sleep_until(Time when) {
    struct Awaiter {
      Engine& eng;
      Time when;
      bool await_ready() const noexcept { return eng.now_ >= when; }
      void await_suspend(std::coroutine_handle<> h) const {
        eng.schedule(when, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, when};
  }

 private:
  /// The windowed shard schedule steers shards by their next pending
  /// timestamp (next_when / idle) between windows.
  friend class EngineSet;

  /// Process the earliest event if it is strictly before `end`.
  bool step_before(Time end) {
    Entry e;
    if (!pop_before(end, e)) return false;
    EMUSIM_CHECK(e.when >= now_);
    now_ = e.when;
    ++events_processed_;
    if ((e.payload & 1) == 0) {
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(e.payload))
          .resume();
    } else {
      dispatch_slot(e.payload);
    }
    return true;
  }

  /// One queued event.  `payload` is tagged by its low bit: 0 = the address
  /// of a coroutine handle (always pointer-aligned), 1 = a SmallFn slot
  /// index shifted left by one.  Keeping entries trivially copyable is what
  /// makes redistribution cheap — relocation is a plain 16-byte move with no
  /// indirect calls.  Entries carry no sequence number: push order within a
  /// bucket is insertion order.
  struct Entry {
    Time when;
    std::uintptr_t payload;
  };

  static std::uintptr_t coro_payload(std::coroutine_handle<> h) {
    return reinterpret_cast<std::uintptr_t>(h.address());
  }

  /// Invoke the parked callback a tagged payload points at.  Kept out of
  /// step() so step()'s inlinable body stays small: with several run()
  /// loops instantiated in one translation unit, the inliner otherwise
  /// outlines step() entirely, costing coroutine-resume scenarios an extra
  /// call + spill per event.
  void dispatch_slot(std::uintptr_t payload) {
    const auto slot = static_cast<std::uint32_t>(payload >> 1);
    // Move the callable out before invoking: the callback may schedule
    // new events, which can grow the slot pool and invalidate references
    // into it.
    SmallFn fn = std::move(slots_[slot]);
    free_slots_.push_back(slot);
    fn();
  }

  template <class F>
  std::uintptr_t slot_payload(F&& fn) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = SmallFn(std::forward<F>(fn));
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<F>(fn));
    }
    return (static_cast<std::uintptr_t>(slot) << 1) | 1;
  }

  // --- Monotone radix queue keyed on `when` ------------------------------

  static constexpr int kBuckets = 64;  ///< `when` >= 0: bit 63 never differs
  /// Entries of capacity a bucket keeps when it empties.
  static constexpr std::size_t kReserve = 64;
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// File `e` by the highest bit in which its `when` differs from `last_`.
  void place(const Entry& e) {
    const int b = std::bit_width(static_cast<std::uint64_t>(e.when ^ last_));
    nonempty_ |= std::uint64_t{1} << b;
    if (b == 0) {
      if (count0_ == ring_.size()) grow_ring();
      ring_[(head0_ + count0_++) & (ring_.size() - 1)] = e;
    } else {
      buckets_[b].push_back(e);
      if (e.when < min_[b]) min_[b] = e.when;
    }
  }

  /// Double bucket 0's ring (kReserve entries at first), keeping its order.
  void grow_ring() {
    std::vector<Entry> grown(ring_.empty() ? kReserve : 2 * ring_.size());
    for (std::size_t k = 0; k < count0_; ++k) {
      grown[k] = ring_[(head0_ + k) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    head0_ = 0;
  }

  /// Timestamp of the earliest pending event; queue must not be idle.
  Time next_when() const {
    return (nonempty_ & 1) ? last_ : min_[std::countr_zero(nonempty_)];
  }

  /// Pop the earliest entry if it is strictly before `end`.  With bucket 0
  /// empty, the lowest non-empty bucket b holds the minimum m: `last_`
  /// moves to m, and every other entry of b differs from m only below bit
  /// b - 1, so it lands in a lower bucket, in b's order.
  bool pop_before(Time end, Entry& out) {
    if ((nonempty_ & 1) == 0) {
      if (nonempty_ == 0) return false;
      const int b = std::countr_zero(nonempty_);
      if (min_[b] >= end) return false;
      last_ = min_[b];
      std::vector<Entry>& from = buckets_[b];
      if (from.size() == 1) {
        out = from[0];
        clear_bucket(b);
        return true;
      }
      for (const Entry& e : from) place(e);
      clear_bucket(b);
    } else if (last_ >= end) {
      return false;
    }
    out = ring_[head0_];
    head0_ = (head0_ + 1) & (ring_.size() - 1);
    if (--count0_ == 0) nonempty_ &= ~std::uint64_t{1};
    return true;
  }

  /// Empty bucket `b` (> 0), giving back capacity beyond the reserve.
  void clear_bucket(int b) {
    std::vector<Entry>& v = buckets_[b];
    v.clear();
    if (v.capacity() > kReserve) std::vector<Entry>().swap(v);
    min_[b] = kNever;
    nonempty_ &= ~(std::uint64_t{1} << b);
  }

  std::vector<Entry> ring_;  ///< bucket 0: a power-of-two ring
  std::size_t head0_ = 0;
  std::size_t count0_ = 0;
  std::array<std::vector<Entry>, kBuckets> buckets_;  ///< [0] unused
  std::array<Time, kBuckets> min_ = [] {  ///< per-bucket minimum `when`
    std::array<Time, kBuckets> m;
    m.fill(kNever);
    return m;
  }();
  std::uint64_t nonempty_ = 0;  ///< bit b set iff bucket b holds entries
  Time last_ = 0;               ///< time of the last pop; moved by pops only
  std::vector<SmallFn> slots_;  ///< parked callbacks, free-listed
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace emusim::sim
