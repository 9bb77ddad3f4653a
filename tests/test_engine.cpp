// DES engine fundamentals: event ordering, determinism, coroutine sleeps,
// Task lifecycle.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/task.hpp"

namespace emusim::sim {
namespace {

TEST(Engine, StartsAtZeroAndIdle) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_TRUE(eng.idle());
  EXPECT_FALSE(eng.step());
}

TEST(Engine, CallbacksRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.call_at(ns(30), [&] { order.push_back(3); });
  eng.call_at(ns(10), [&] { order.push_back(1); });
  eng.call_at(ns(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), ns(30));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.call_at(ns(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedScheduling) {
  Engine eng;
  int fired = 0;
  eng.call_at(ns(10), [&] {
    eng.call_in(ns(5), [&] {
      ++fired;
      EXPECT_EQ(eng.now(), ns(15));
    });
  });
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, SameTimestampOrderSpansHeapAndFifoLanes) {
  // Event 1 was scheduled in advance for ns(10) and reaches bucket 0 by a
  // redistribution; events 2 and 3 are scheduled for "now" from inside
  // event 0 and go straight into bucket 0's ring (the old heap and FIFO
  // lanes, which the test is named after).  Global insertion order must
  // win: the seq-1 event fires before the seq-2/seq-3 events.
  Engine eng;
  std::vector<int> order;
  eng.call_at(ns(10), [&] {
    order.push_back(0);
    eng.call_in(0, [&] { order.push_back(2); });
    eng.call_at(ns(10), [&] { order.push_back(3); });
  });
  eng.call_at(ns(10), [&] { order.push_back(1); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(eng.now(), ns(10));
}

/// Suspend and requeue via schedule_now(): the explicit zero-delay entry.
struct ScheduleNowAwaiter {
  Engine& eng;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { eng.schedule_now(h); }
  void await_resume() const noexcept {}
};

/// Suspend and requeue via schedule(now(), h): the general entry point fed
/// a same-timestamp event, which must land in bucket 0 too.
struct ScheduleAtNowAwaiter {
  Engine& eng;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    eng.schedule(eng.now(), h);
  }
  void await_resume() const noexcept {}
};

Task lane_probe(Engine& eng, std::vector<int>* order, int id, int mode) {
  co_await eng.sleep(ns(10));
  order->push_back(id);
  switch (mode) {
    case 0:
      co_await ScheduleNowAwaiter{eng};
      break;
    case 1:
      co_await ScheduleAtNowAwaiter{eng};
      break;
    default:
      co_await eng.sleep(0);
      break;
  }
  order->push_back(id + 10);
}

TEST(Engine, SameTimestampTiesAcrossAllEntryPoints) {
  // All three ways of queueing work "for the current timestamp" —
  // schedule_now(), schedule(now(), h), and a zero-delay sleep — must obey
  // one global insertion order together with events scheduled for the same
  // timestamp in advance.  This is the tie invariant the sharded
  // engine's mailbox merge has to preserve, pinned down on one engine.
  auto run_once = [](Engine& eng) {
    std::vector<int> order;
    eng.call_at(ns(10), [&] { order.push_back(0); });  // in advance, seq 0
    std::vector<Task> tasks;
    tasks.push_back(lane_probe(eng, &order, 1, 0));  // sleeps: seq 1
    tasks.push_back(lane_probe(eng, &order, 2, 1));  // seq 2
    tasks.push_back(lane_probe(eng, &order, 3, 2));  // seq 3
    for (auto& t : tasks) t.start();
    eng.call_at(ns(10), [&] { order.push_back(4); });  // in advance, seq 4
    eng.run();
    return order;
  };
  // At ns(10) the events queued in advance fire in seq order (0,1,2,3,4);
  // each probe requeues itself through its zero-delay entry point, so the
  // +10 echoes follow in the same relative order.
  const std::vector<int> want{0, 1, 2, 3, 4, 11, 12, 13};
  Engine eng;
  EXPECT_EQ(run_once(eng), want);
  EXPECT_EQ(eng.now(), ns(10));
}

TEST(Engine, RunWindowAndInjectPreserveOrderAcrossWindows) {
  // run_window(end) processes strictly-before-end events and leaves the
  // clock at the last one; a message injected at the window boundary then
  // interleaves with pre-existing same-timestamp events by seq order.
  Engine eng;
  std::vector<int> fired;
  eng.call_at(ns(10), [&] { fired.push_back(1); });  // seq 0
  eng.call_at(ns(20), [&] { fired.push_back(2); });  // seq 1
  eng.call_at(ns(30), [&] { fired.push_back(3); });  // seq 2
  eng.run_window(ns(20));
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(eng.now(), ns(10));  // not bumped to the window end
  EXPECT_FALSE(eng.idle());
  eng.call_at(ns(20), [&] { fired.push_back(9); });  // seq 3
  eng.run_window(ns(25));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 9}));
  eng.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 9, 3}));
  eng.advance_to(ns(100));
  EXPECT_EQ(eng.now(), ns(100));
  eng.advance_to(ns(50));  // never moves time backwards
  EXPECT_EQ(eng.now(), ns(100));
}

Task yield_chain(Engine& eng, std::vector<int>* order, int id, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    order->push_back(id);
    co_await eng.sleep(0);
  }
}

TEST(Engine, ZeroDelayYieldsInterleaveRoundRobin) {
  // Zero-delay sleeps ride bucket 0's ring; seq order degenerates to a fair
  // round-robin over the ready tasks, all at one timestamp.
  Engine eng;
  std::vector<int> order;
  std::vector<Task> tasks;
  for (int id = 0; id < 3; ++id) {
    tasks.push_back(yield_chain(eng, &order, id, 3));
  }
  for (auto& t : tasks) t.start();
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(eng.now(), 0);
}

struct CopyCountingCallable {
  int* copies;
  int* invocations;
  CopyCountingCallable(int* c, int* i) : copies(c), invocations(i) {}
  CopyCountingCallable(const CopyCountingCallable& o)
      : copies(o.copies), invocations(o.invocations) {
    ++*copies;
  }
  CopyCountingCallable(CopyCountingCallable&& o) noexcept = default;
  void operator()() { ++*invocations; }
};

TEST(Engine, DispatchNeverCopiesCallbacks) {
  // Regression for the old std::priority_queue engine, which copied the
  // event (and its closure) out of top() before pop on every dispatch.
  Engine eng;
  int copies = 0;
  int invocations = 0;
  // Surround the counted event with neighbors at other timestamps so
  // redistributions move its entry between buckets.
  for (int i = 0; i < 16; ++i) eng.call_at(ns(i), [] {});
  eng.call_at(ns(8), CopyCountingCallable(&copies, &invocations));
  for (int i = 16; i < 32; ++i) eng.call_at(ns(i), [] {});
  eng.run();
  EXPECT_EQ(invocations, 1);
  EXPECT_EQ(copies, 0);
}

TEST(Engine, OversizedCaptureFallsBackToHeapAndStillFires) {
  // Captures beyond SmallFn's inline budget take the heap-cell fallback;
  // behavior (ordering, invocation) must be identical.
  Engine eng;
  struct Big {
    std::uint64_t payload[12];
  } big{};
  big.payload[11] = 42;
  std::uint64_t seen = 0;
  SmallFn fn = [big, &seen] { seen = big.payload[11]; };
  EXPECT_FALSE(fn.is_inline());
  eng.call_at(ns(1), std::move(fn));
  SmallFn small = [&seen] { ++seen; };
  EXPECT_TRUE(small.is_inline());
  eng.call_at(ns(2), std::move(small));
  eng.run();
  EXPECT_EQ(seen, 43u);
}

TEST(Engine, EventCountAccumulates) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.call_at(i, [] {});
  eng.run();
  EXPECT_EQ(eng.events_processed(), 7u);
}

Task sleeper(Engine& eng, std::vector<Time>& wakeups) {
  co_await eng.sleep(ns(10));
  wakeups.push_back(eng.now());
  co_await eng.sleep(ns(25));
  wakeups.push_back(eng.now());
  co_await eng.sleep(0);
  wakeups.push_back(eng.now());
}

TEST(Task, SleepAdvancesTime) {
  Engine eng;
  std::vector<Time> wakeups;
  auto t = sleeper(eng, wakeups);
  t.start();
  eng.run();
  EXPECT_EQ(wakeups, (std::vector<Time>{ns(10), ns(35), ns(35)}));
}

Task sleep_until_steps(Engine& eng, std::vector<Time>& wakeups,
                       std::vector<std::uint64_t>& events) {
  co_await eng.sleep(ns(10));
  events.push_back(eng.events_processed());
  co_await eng.sleep_until(ns(4));  // already due: no event, no yield
  wakeups.push_back(eng.now());
  events.push_back(eng.events_processed());
  co_await eng.sleep_until(ns(10));  // due exactly now: same
  events.push_back(eng.events_processed());
  co_await eng.sleep_until(ns(37));
  wakeups.push_back(eng.now());
  events.push_back(eng.events_processed());
}

TEST(Task, SleepUntilSkipsTheQueueWhenDueAndWakesExactlyOtherwise) {
  Engine eng;
  std::vector<Time> wakeups;
  std::vector<std::uint64_t> events;
  auto t = sleep_until_steps(eng, wakeups, events);
  t.start();
  eng.run();
  EXPECT_EQ(wakeups, (std::vector<Time>{ns(10), ns(37)}));
  EXPECT_EQ(events, (std::vector<std::uint64_t>{1, 1, 1, 2}));
}

Task trivial(Engine& eng) { co_await eng.sleep(ns(1)); }

TEST(Task, UnstartedTaskDoesNotLeak) {
  Engine eng;
  {
    auto t = trivial(eng);
    // destroyed without start(): the frame must be freed (ASAN would catch
    // a leak) and the body never runs, so nothing is ever scheduled
  }
  EXPECT_TRUE(eng.idle());
  EXPECT_EQ(eng.run(), 0);
  EXPECT_EQ(eng.events_processed(), 0u);
}

TEST(Task, ManyConcurrentTasksDeterministic) {
  auto run_once = [] {
    Engine eng;
    std::vector<Time> wakeups;
    std::vector<Task> tasks;
    for (int i = 0; i < 100; ++i) tasks.push_back(sleeper(eng, wakeups));
    for (auto& t : tasks) t.start();
    eng.run();
    return wakeups;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace emusim::sim
