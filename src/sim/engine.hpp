// Discrete-event simulation core.
//
// The Engine owns a timed event queue.  An event either resumes a suspended
// coroutine (the common case: a simulated thread waiting on a delay or a
// resource) or invokes a plain callback (used by machine components such as
// prefetchers).  Ties are broken by insertion order, so a simulation run is
// fully deterministic.
//
// The queue is allocation-free on the hot path:
//   * a queued event is a trivially-copyable 24-byte entry — (when, seq,
//     tagged payload).  Coroutine resumptions pack the raw handle into the
//     payload word; callbacks park a SmallFn (inline small-object store,
//     heap fallback only for oversized captures) in a free-listed slot pool
//     and the payload carries the slot index.  Heap sifts therefore shuffle
//     PODs and never touch a closure;
//   * timed entries sit in an explicit 4-ary heap over a flat vector — a
//     shallower tree than a binary heap (fewer cache lines per sift), with
//     move-on-pop so dispatch never deep-copies anything;
//   * entries scheduled for exactly now() — zero-delay yields, semaphore
//     grants, sync wakeups: the bulk of spawn-tree traffic — take a FIFO
//     ring that bypasses the heap entirely.  FIFO entries are consumed in
//     seq order against the heap top, so the two lanes interleave exactly
//     as one queue would.
//
// All coroutine resumptions go through the event queue — components never
// resume a coroutine synchronously from inside another coroutine.  This
// keeps stack depth bounded regardless of how many simulated threads wake
// each other.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
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
    push_entry(when, coro_payload(h));
  }

  /// Resume coroutine `h` after `delay`.
  void schedule_in(Time delay, std::coroutine_handle<> h) {
    schedule(now_ + delay, h);
  }

  /// Resume coroutine `h` at the current time, after all already-queued
  /// events for this timestamp.  The explicit zero-delay entry point:
  /// producers that wake a peer "immediately" (semaphore grants, sync
  /// notifications) land straight in the FIFO fast lane.
  void schedule_now(std::coroutine_handle<> h) {
    fifo_push(Entry{now_, next_seq_++, coro_payload(h)});
  }

  /// Invoke `fn` at absolute time `when`.  Any callable `void()`; captures
  /// up to SmallFn::kInlineBytes are stored without allocating.
  template <class F>
  void call_at(Time when, F&& fn) {
    EMUSIM_CHECK(when >= now_);
    push_entry(when, slot_payload(std::forward<F>(fn)));
  }

  /// Invoke `fn` after `delay`.
  template <class F>
  void call_in(Time delay, F&& fn) {
    call_at(now_ + delay, std::forward<F>(fn));
  }

  /// Process the earliest event.  Returns false when the queue is empty.
  bool step() {
    Entry e;
    if (!pop_next(e)) return false;
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

  /// Run until no events remain.  Returns the final simulated time.
  Time run() {
    while (step()) {
    }
    return now_;
  }

  /// Process all events with a timestamp strictly before `end`, leaving the
  /// clock at the last processed event rather than bumping it to `end`.
  /// Building block for the windowed shard schedule (EngineSet): a shard
  /// executes one conservative time window, then the driver exchanges
  /// cross-shard messages — which carry timestamps >= `end` and must still
  /// satisfy the when > now() heap routing — and opens the next window.
  Time run_window(Time end) {
    while (!idle() && next_when() < end) step();
    return now_;
  }

  /// Queue a cross-shard coroutine resumption delivered by the windowed
  /// driver.  Semantically identical to schedule(), but named separately so
  /// mailbox delivery sites are greppable; the conservative-window invariant
  /// guarantees `when` lies at or beyond the current window end, i.e.
  /// strictly in this shard's future.
  void inject(Time when, std::coroutine_handle<> h) {
    EMUSIM_CHECK(when > now_);
    push_entry(when, coro_payload(h));
  }

  /// Queue a cross-shard callback delivered by the windowed driver.
  void inject_call(Time when, SmallFn fn) {
    EMUSIM_CHECK(when > now_);
    push_entry(when, slot_payload(std::move(fn)));
  }

  /// Advance the clock to `t` without processing anything.  Used by the
  /// windowed driver to bring every shard to the same final time once all
  /// queues have drained, so post-run now() reads are shard-independent.
  void advance_to(Time t) {
    EMUSIM_CHECK(idle() || next_when() >= t);
    if (t > now_) now_ = t;
  }

  bool idle() const { return fifo_count_ == 0 && heap_.empty(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Awaitable: suspend the current coroutine for `delay` simulated time.
  /// A delay of zero still round-trips through the event queue — via the
  /// FIFO fast lane — which is useful for yielding fairly to other ready
  /// work at the same timestamp.
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

  /// Awaitable: suspend until absolute time `when`.
  auto sleep_until(Time when) { return sleep(when > now_ ? when - now_ : 0); }

 private:
  /// The windowed shard schedule steers shards by their next pending
  /// timestamp (next_when / idle) between windows.
  friend class EngineSet;

  /// One queued event.  `payload` is tagged by its low bit: 0 = the address
  /// of a coroutine handle (always pointer-aligned), 1 = a SmallFn slot
  /// index shifted left by one.  Keeping entries trivially copyable is what
  /// makes heap sifts cheap — relocation is a plain 24-byte move with no
  /// indirect calls.
  struct Entry {
    Time when;
    std::uint64_t seq;
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

  /// (when, seq) packed into one 128-bit key.  `when` is never negative
  /// (time starts at 0 and schedule() checks when >= now()), so unsigned
  /// comparison of the packed key matches lexicographic (when, seq) order
  /// and compiles to a branchless cmp/sbb pair — heap sifts on mixed
  /// timestamps would otherwise mispredict the when-vs-seq tie branch.
  static unsigned __int128 order_key(const Entry& e) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.when))
            << 64) |
           e.seq;
  }

  static bool before(const Entry& a, const Entry& b) {
    return order_key(a) < order_key(b);
  }

  /// Scalar parameters on purpose: a 24-byte Entry argument would be passed
  /// on the stack (SysV passes >16-byte aggregates in memory), and this is
  /// called once per scheduled event — often as an out-of-line call from a
  /// coroutine frame.
  void push_entry(Time when, std::uintptr_t payload) {
    const Entry e{when, next_seq_++, payload};
    if (e.when == now_) {
      fifo_push(e);
    } else {
      heap_push(e);
    }
  }

  // --- 4-ary min-heap over a flat vector, ordered by (when, seq) ---------

  void heap_push(Entry e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Entry heap_pop() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return top;
  }

  // --- FIFO fast lane: a ring of entries with when == now() --------------
  //
  // Entries are pushed with monotonically increasing seq, so the ring is
  // sorted by seq by construction; pop_next() merges it with the heap top
  // by (when, seq) to preserve global insertion-order ties.  The ring fully
  // drains before time can advance: its entries carry the minimum pending
  // timestamp by the when >= now() scheduling invariant.

  void fifo_push(Entry e) {
    if (fifo_count_ == fifo_.size()) fifo_grow();
    fifo_[(fifo_head_ + fifo_count_) & (fifo_.size() - 1)] = e;
    ++fifo_count_;
  }

  Entry fifo_pop() {
    const Entry e = fifo_[fifo_head_];
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    --fifo_count_;
    return e;
  }

  /// Double the ring (64 entries at first), preserving queued entries in
  /// order.
  void fifo_grow() {
    const std::size_t old_cap = fifo_.size();
    std::vector<Entry> grown(old_cap == 0 ? 64 : old_cap * 2);
    for (std::size_t k = 0; k < fifo_count_; ++k) {
      grown[k] = fifo_[(fifo_head_ + k) & (old_cap - 1)];
    }
    fifo_ = std::move(grown);
    fifo_head_ = 0;
  }

  /// Timestamp of the earliest pending event; queue must not be idle.
  Time next_when() const {
    if (fifo_count_ > 0) return fifo_[fifo_head_].when;
    return heap_.front().when;
  }

  bool pop_next(Entry& out) {
    const bool have_fifo = fifo_count_ > 0;
    const bool have_heap = !heap_.empty();
    if (!have_fifo && !have_heap) return false;
    if (have_fifo &&
        (!have_heap || before(fifo_[fifo_head_], heap_.front()))) {
      out = fifo_pop();
    } else {
      out = heap_pop();
    }
    return true;
  }

  std::vector<Entry> heap_;
  std::vector<Entry> fifo_;  ///< power-of-two ring buffer
  std::size_t fifo_head_ = 0;
  std::size_t fifo_count_ = 0;
  std::vector<SmallFn> slots_;  ///< parked callbacks, free-listed
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace emusim::sim
