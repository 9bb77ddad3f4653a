// Configurations of the cache-based comparison platforms (paper §III-C).
//
//   sandy_bridge — dual-socket Xeon E5-2670: 16 cores @ 2.6 GHz, 20 MiB
//                  shared L3 per socket, 4 channels of DDR3-1600
//                  (51.2 GB/s peak).  Used for STREAM and pointer chasing.
//   haswell      — quad-socket Xeon E7-4850 v3: 56 cores @ 2.2 GHz, 35 MiB
//                  L3 per socket, DDR4 clocked at 1333 MT/s.  Used for SpMV.
//
// The model folds the per-socket L3s into one shared last-level cache and
// interleaves physical lines across all channels (the paper's runs use
// numactl --interleave), which preserves the bandwidth/locality behaviour
// these benchmarks exercise.
#pragma once

#include <cstdint>
#include <string>

#include "mem/dram.hpp"

namespace emusim::xeon {

struct SystemConfig {
  std::string name = "sandy_bridge";

  // --- cores --------------------------------------------------------------
  int cores = 16;
  int sockets = 2;
  /// Added load-to-use latency when a line's home memory is on another
  /// socket (QPI hop).  With numactl --interleave, (sockets-1)/sockets of
  /// all lines are remote to any given core.
  Time remote_socket_latency = ns(50);
  double clock_hz = 2.6e9;
  /// Line-fill buffers per core: the per-core limit on outstanding misses.
  int lfb_per_core = 10;

  // --- cache ---------------------------------------------------------------
  std::size_t llc_bytes = std::size_t{40} << 20;
  int llc_ways = 20;
  int line_bytes = 64;
  Time hit_latency = ns(22);  ///< load-to-use for a cache hit (L2/L3 blend;
                              ///< single-pass kernels rarely hit in L1)

  // --- memory --------------------------------------------------------------
  mem::DramTiming dram = mem::DramTiming::ddr3_1600();
  int channels = 4;
  std::size_t channel_interleave_bytes = 256;

  // --- hardware prefetch ----------------------------------------------------
  int prefetch_trigger = 2;  ///< sequential line misses before streaming
  int prefetch_degree = 12;  ///< lines fetched ahead of a detected stream

  // --- software (Cilk runtime model) ----------------------------------------
  int spawn_overhead_cycles = 3000;  ///< per-task cost of cilk_spawn/steal
  int for_chunk_overhead_cycles = 150;  ///< per-chunk cost of cilk_for

  double peak_bytes_per_sec() const {
    return dram.bytes_per_sec() * channels;
  }
  Time cycle() const { return period_from_hz(clock_hz); }

  /// Abort (EMUSIM_CHECK) on a geometry the model cannot represent: a line
  /// size that is not a power of two of at least 8 bytes, more than 255 LLC
  /// ways (LRU ranks are u8), an LLC smaller than one set, cores that do not
  /// split evenly across sockets, or no channels or line-fill buffers.
  /// Machine construction validates.
  void validate() const;

  static SystemConfig sandy_bridge();
  static SystemConfig haswell();
};

}  // namespace emusim::xeon
