// Microprobes: time single public classes of the simulator on fixed inputs,
// outside any workload, so a change to one structure shows in one number.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct ProbeResult {
  double llc_lookup_hit_ns = 0;   ///< SetAssocCache::lookup, resident lines
  double llc_lookup_miss_ns = 0;  ///< lookup of lines never installed
  double llc_contains_ns = 0;     ///< contains() over twice the capacity
  double heap_ns_per_event = 0;   ///< Engine events with future timestamps
  double fifo_ns_per_event = 0;   ///< Engine events scheduled for now()
  std::string error;              ///< a probe counted wrong; empty when ok
};

/// Run every probe (median of several repetitions each).  Addresses and
/// delays are drawn from `seed`.
ProbeResult run_probes(std::uint64_t seed);

}  // namespace perfbench
