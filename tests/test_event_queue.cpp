// The engine's event queue against a reference model: seeded random
// schedules through every public entry point must pop in exact (when, seq)
// order, and the queue's host storage must follow the number of pending
// events rather than its history.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace emusim::sim {
namespace {

/// Mirrors every push the engine sees as (when, seq, tag) and checks each
/// dispatched event against the least entry.  Tags >= 0 name callbacks;
/// negative tags name probe coroutines.
struct Model {
  Engine& eng;
  Rng rng;
  std::uint64_t budget;  ///< events still allowed to schedule more work
  std::set<std::tuple<Time, std::uint64_t, std::int64_t>> ref;
  std::uint64_t seq = 0;
  std::uint64_t fired = 0;
  std::int64_t next_tag = 0;

  /// A random time at or after now(): often exactly now, else spread over
  /// short, medium and very long delays so that many buckets fill.
  Time pick_time() {
    switch (rng.below(5)) {
      case 0:
        return eng.now();
      case 1:
        return eng.now() + static_cast<Time>(1 + rng.below(16));
      case 2:
        return eng.now() + static_cast<Time>(rng.below(1000));
      case 3:
        return eng.now() + static_cast<Time>(rng.below(Time{1} << 24));
      default:
        return eng.now() + static_cast<Time>(rng.below(Time{1} << 44));
    }
  }

  void expect(Time when, std::int64_t tag) {
    ref.emplace(when, seq++, tag);
  }

  /// One dispatched event: it must be the reference's least entry.
  void on_fire(std::int64_t tag) {
    ASSERT_FALSE(ref.empty());
    const auto [when, s, want] = *ref.begin();
    ASSERT_EQ(tag, want) << "seq " << s;
    ASSERT_EQ(eng.now(), when);
    ref.erase(ref.begin());
    ++fired;
    ASSERT_EQ(eng.events_processed(), fired);
  }

  /// Queue a random number of callbacks through call_at / call_in.
  void act() {
    if (budget == 0) return;
    --budget;
    for (std::uint64_t k = rng.below(3); k > 0; --k) add_callback(pick_time());
  }

  void add_callback(Time when) {
    const std::int64_t tag = next_tag++;
    expect(when, tag);
    if (rng.below(2) == 0) {
      eng.call_at(when, [this, tag] {
        on_fire(tag);
        act();
      });
    } else {
      eng.call_in(when - eng.now(), [this, tag] {
        on_fire(tag);
        act();
      });
    }
  }
};

/// Requeue through schedule(when, h) or schedule_now(h).
struct Requeue {
  Model& m;
  std::int64_t tag;
  Time when;
  bool now;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    m.expect(when, tag);
    if (now) {
      m.eng.schedule_now(h);
    } else {
      m.eng.schedule(when, h);
    }
  }
  void await_resume() const noexcept {}
};

/// A coroutine that, on every resume, checks the order, schedules more
/// work and suspends again through a randomly chosen entry point.
Task probe(Model& m, std::int64_t tag) {
  while (m.budget > 0) {
    --m.budget;
    m.act();
    const Time now = m.eng.now();
    switch (m.rng.below(5)) {
      case 0:
        co_await Requeue{m, tag, now, true};
        break;
      case 1:
        co_await Requeue{m, tag, m.pick_time(), false};
        break;
      case 2: {  // a due sleep_until continues without an event
        const std::uint64_t events = m.eng.events_processed();
        co_await m.eng.sleep_until(now - static_cast<Time>(
                                              m.rng.below(2) * (now > 0)));
        EXPECT_EQ(m.eng.now(), now);
        EXPECT_EQ(m.eng.events_processed(), events);
        continue;
      }
      case 3: {
        const Time t = now + 1 + static_cast<Time>(m.rng.below(5000));
        m.expect(t, tag);
        co_await m.eng.sleep_until(t);
        break;
      }
      default:
        m.expect(now, tag);
        co_await m.eng.sleep(0);
        break;
    }
    m.on_fire(tag);
  }
}

/// Drive the engine from outside with step(), run_window() followed by
/// deliveries at or after the window's end (often below the queue's next
/// time), and advance_to() up to the next pending time.
void replay(std::uint64_t seed) {
  Engine eng;
  Model m{eng, Rng(seed), 20000, {}};
  std::vector<Task> probes;
  for (std::int64_t p = 1; p <= 8; ++p) probes.push_back(probe(m, -p));
  for (Task& t : probes) t.start();
  for (int k = 0; k < 16; ++k) m.add_callback(m.pick_time());

  while (!eng.idle()) {
    ASSERT_FALSE(::testing::Test::HasFailure());
    switch (m.rng.below(4)) {
      case 0: {
        ASSERT_TRUE(eng.step());
        break;
      }
      case 1: {
        const Time next = std::get<0>(*m.ref.begin());
        const Time end = next + static_cast<Time>(m.rng.below(4000));
        const std::uint64_t fired = m.fired;
        eng.run_window(end);
        ASSERT_TRUE(m.ref.empty() || std::get<0>(*m.ref.begin()) >= end);
        if (m.fired > fired) {
          ASSERT_LT(eng.now(), end);
        }
        // Window deliveries: at or after `end`, below the queue's next
        // time when the gap allows.
        for (std::uint64_t k = m.rng.below(4); k > 0; --k) {
          m.add_callback(end + static_cast<Time>(m.rng.below(8)));
        }
        break;
      }
      case 2: {
        const Time next = std::get<0>(*m.ref.begin());
        const Time before = eng.now();
        const Time t = before + static_cast<Time>(
                                    m.rng.below(static_cast<std::uint64_t>(
                                        next - before + 1)));
        eng.advance_to(t);
        ASSERT_EQ(eng.now(), std::max(before, t));
        break;
      }
      default:
        m.add_callback(m.pick_time());
        break;
    }
    ASSERT_EQ(eng.events_processed(), m.fired);
  }
  EXPECT_TRUE(m.ref.empty());
  EXPECT_FALSE(eng.step());
  EXPECT_GT(m.fired, 20000u);
}

TEST(EventQueue, MatchesReferenceOrderOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    replay(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueue, HostStorageFollowsPendingEvents) {
  // Bursts of 100k events over many timestamps, drained completely, five
  // times over: storage stays within a small multiple of the burst while it
  // is pending and keeps no per-bucket capacity once it drains.
  constexpr std::size_t kBurst = 100000;
  const std::size_t burst_bytes = kBurst * 16;  // one 16-byte entry each
  Engine eng;
  Rng rng(7);
  std::size_t peak = 0;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t k = 0; k < kBurst; ++k) {
      eng.call_in(static_cast<Time>(rng.below(Time{1} << (4 + k % 36))),
                  [] {});
    }
    peak = std::max(peak, eng.queue_host_bytes());
    while (eng.step()) peak = std::max(peak, eng.queue_host_bytes());
    EXPECT_LE(peak, 4 * burst_bytes);
    EXPECT_LE(eng.queue_host_bytes(), std::size_t{64} * 64 * 16);
  }
  EXPECT_EQ(eng.events_processed(), 5 * kBurst);
}

}  // namespace
}  // namespace emusim::sim
