// At-scale pointer chasing for the 64-1024 nodelet sweeps (bench
// scale_chase, extending the paper's Fig 11 projection).
//
// The Fig 11 chase (kernels/chase_emu.hpp) keeps its list in host memory,
// O(n) bytes, which caps it far below the billion-element datasets of the
// scaling study.  This kernel shares that chase's Emu worker and
// remote-spawn tree but walks a *procedural* chain: blocks in a full-period
// LCG order over the power-of-two block-index space (or sequentially, for
// the locality contrast), with hashed-index payloads the host replays to
// verify.  Each chain walks exactly `elems_per_thread` elements, so a
// point's event count and wall cost do not depend on n.  The only
// materialized storage is one striped checksum slot per chain: threads * 8
// host bytes (the run telemetry's peak_host_bytes), whatever n is.
#pragma once

#include <cstdint>

#include "emu/config.hpp"
#include "kernels/chase_emu.hpp"

namespace emusim::kernels {

struct ChaseScaleParams {
  std::size_t n = std::size_t{1} << 24;  ///< elements; must be a power of two
  std::size_t block = 64;                ///< elements per block; power of two
  int threads = 256;                     ///< concurrent chains
  /// Elements each chain visits (a multiple of `block`).  Work per point is
  /// threads * elems_per_thread regardless of n.
  std::uint64_t elems_per_thread = 4096;
  /// true: full-period LCG permutation of the block order (the shuffled
  /// walk); false: sequential block order.  Both orders change nodelet
  /// every block under block-cyclic striping — the paper's claim is that
  /// their bandwidth matches (locality-insensitivity).
  bool shuffled = true;
  std::uint64_t seed = 1;
};

/// Defined in chase_emu.cpp beside run_chase_emu.  `mb_per_sec` counts 16
/// useful bytes per visited element.
ChaseEmuResult run_chase_scale(const emu::SystemConfig& cfg,
                               const ChaseScaleParams& p);

}  // namespace emusim::kernels
