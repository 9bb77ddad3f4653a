// Host-side memory accounting for the allocation views.
//
// The simulator's distributed arrays (emu/runtime/alloc.hpp) back their
// functional values with host memory.  At paper scale that was irrelevant;
// at 2^30-element datasets on 256-1024 nodelet configs (ROADMAP item 3) the
// host mirror is the binding resource, so it is tracked as a first-class
// metric: every view registers the bytes it materializes against its
// machine's HostFootprint, and the bench harness reports the peak per sweep
// point (the `mem_peak_bytes` extra, gated by tools/shapes).
//
// The contract the chunked views uphold: bookkeeping is O(participating
// nodelets) per region, and chunks materialize only when element storage is
// actually touched — a view used purely for address/home math (the
// at-scale benches) costs no host memory at all.
//
// Plain counters: a machine's shards all run on the thread that called
// run_root() (src/sim/shard.hpp), and --jobs gives each sweep point its own
// machines.
#pragma once

#include <algorithm>
#include <cstdint>

namespace emusim::emu {

class HostFootprint {
 public:
  /// Register `bytes` of freshly materialized host storage.
  void add(std::uint64_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
  }

  /// Release `bytes` (view destruction).
  void sub(std::uint64_t bytes) { current_ -= bytes; }

  /// Host bytes currently materialized across all live views.
  std::uint64_t current() const { return current_; }
  /// High-water mark since construction (never reset: peak is the metric).
  std::uint64_t peak() const { return peak_; }

 private:
  std::uint64_t current_ = 0;
  std::uint64_t peak_ = 0;
};

}  // namespace emusim::emu
