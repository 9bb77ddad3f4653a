#include "probes.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "trace.hpp"
#include "xeon/cache.hpp"
#include "xeon/config.hpp"

namespace perfbench {

namespace {

using emusim::Time;

constexpr int kReps = 5;
constexpr std::size_t kLookups = std::size_t{1} << 18;
constexpr std::uint64_t kEvents = std::uint64_t{1} << 19;
constexpr int kPending = 4096;

/// Median over kReps runs of `f`, in ns per operation.
template <class F>
double median_ns_per_op(std::uint64_t ops, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    f();
    v.push_back(static_cast<double>(now_ns() - t0) /
                static_cast<double>(ops));
  }
  std::nth_element(v.begin(), v.begin() + kReps / 2, v.end());
  return v[kReps / 2];
}

/// A callback that reschedules itself until the shared budget runs out,
/// `1 + below(max_delay)` ps ahead (or at now() when max_delay is 0).
struct Hop {
  emusim::sim::Engine* eng;
  emusim::sim::Rng* rng;
  std::uint64_t* budget;
  std::uint64_t max_delay;
  void operator()() const {
    if (*budget == 0) return;
    --*budget;
    const Time d =
        max_delay ? static_cast<Time>(1 + rng->below(max_delay)) : Time{0};
    eng->call_in(d, *this);
  }
};

/// ns per processed event for kPending self-rescheduling callbacks.
double engine_ns_per_event(std::uint64_t seed, std::uint64_t max_delay,
                           std::string* error) {
  return median_ns_per_op(kEvents, [&] {
    emusim::sim::Engine eng;
    emusim::sim::Rng rng(seed);
    std::uint64_t budget = kEvents;
    for (int i = 0; i < kPending; ++i) Hop{&eng, &rng, &budget, max_delay}();
    eng.run();
    if (eng.events_processed() != kEvents) {
      *error = "engine probe processed a wrong number of events";
    }
  });
}

}  // namespace

ProbeResult run_probes(std::uint64_t seed) {
  ProbeResult out;
  const auto cfg = emusim::xeon::SystemConfig::sandy_bridge();
  emusim::xeon::SetAssocCache llc(cfg.llc_bytes, cfg.llc_ways,
                                  cfg.line_bytes);
  const std::uint64_t line = static_cast<std::uint64_t>(cfg.line_bytes);
  const std::uint64_t ways = static_cast<std::uint64_t>(cfg.llc_ways);
  const std::uint64_t lines = std::bit_floor(cfg.llc_bytes / line / ways) *
                              ways;
  // Installing lines 0..lines-1 fills every way of every set exactly once.
  for (std::uint64_t k = 0; k < lines; ++k) llc.insert(k * line, 0, false);

  emusim::sim::Rng rng(seed);
  std::vector<std::uint64_t> resident(kLookups), absent(kLookups),
      mixed(kLookups);
  for (std::size_t i = 0; i < kLookups; ++i) {
    resident[i] = rng.below(lines) * line;
    absent[i] = (lines + rng.below(lines)) * line;
    mixed[i] = rng.below(2 * lines) * line;
  }

  std::uint64_t found = 0;
  out.llc_lookup_hit_ns = median_ns_per_op(kLookups, [&] {
    for (std::uint64_t a : resident) found += llc.lookup(a) != nullptr;
  });
  out.llc_lookup_miss_ns = median_ns_per_op(kLookups, [&] {
    for (std::uint64_t a : absent) found += llc.lookup(a) != nullptr;
  });
  std::uint64_t present = 0;
  out.llc_contains_ns = median_ns_per_op(kLookups, [&] {
    for (std::uint64_t a : mixed) present += llc.contains(a);
  });
  if (found != kReps * kLookups || llc.stats.hits != kReps * kLookups ||
      llc.stats.misses != kReps * kLookups || present == 0 ||
      present == kReps * kLookups) {
    out.error = "LLC probe counted wrong hits or misses";
  }

  out.heap_ns_per_event = engine_ns_per_event(seed, 1000, &out.error);
  out.fifo_ns_per_event = engine_ns_per_event(seed, 0, &out.error);
  return out;
}

}  // namespace perfbench
