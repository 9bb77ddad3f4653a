// Linked-list construction for the pointer-chasing benchmark (paper §III-E,
// Fig 2): elements of 16 bytes (8 B payload + 8 B next pointer) are grouped
// into blocks; the traversal order may shuffle the elements within each
// block (intra_block_shuffle), the order of the blocks (block_shuffle), or
// both (full_block_shuffle).
//
// The list is partitioned among T threads: each thread owns a contiguous
// range of blocks and traverses its own independent chain that visits every
// element of those blocks exactly once.  This file is platform-independent;
// the Emu and Xeon kernels lay the same logical lists onto their own
// memories.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "sim/random.hpp"

namespace emusim::kernels {

enum class ShuffleMode {
  none,                 ///< fully sequential traversal (sanity baseline)
  intra_block_shuffle,  ///< shuffle order within blocks; block order kept
  block_shuffle,        ///< shuffle block order; order within blocks kept
  full_block_shuffle,   ///< shuffle both
};

const char* to_string(ShuffleMode m);

/// A 16-byte list element, as laid out in simulated memory.
struct ChaseElement {
  std::int64_t payload = 0;
  std::uint64_t next = 0;  ///< global element index of the successor
};
static_assert(sizeof(ChaseElement) == 16);

/// The successor of a chain's tail.  Element indices are u32, so a list
/// holds fewer than 2^32 - 1 elements.
inline constexpr std::uint32_t kChaseEnd = ~std::uint32_t{0};

/// The logical list: per-thread chain heads plus the successor of every
/// element, and the payload values with per-thread expected sums.  The
/// host keeps one copy at 8 B per element, read in place by both backends;
/// the simulated 16 B element layout (ChaseElement) only sets addresses.
struct ChaseList {
  std::size_t n = 0;
  std::size_t block = 0;
  int threads = 0;
  std::vector<std::uint32_t> head;           ///< chain head per thread
  std::vector<std::uint32_t> next;           ///< successor per element
  std::vector<std::uint32_t> payload;        ///< 24-bit value per element
  std::vector<std::int64_t> expected_sum;    ///< per-thread traversal sum
};

/// Build a list of `n` elements in blocks of `block` elements, partitioned
/// among `threads` chains.  n must be a multiple of block, and there must
/// be at least as many blocks as threads; thread t owns the contiguous
/// block range [t * blocks / threads, (t + 1) * blocks / threads), so chain
/// lengths differ by at most one block when threads does not divide the
/// block count (the benchmark's sizes divide evenly).  n must be below
/// 2^32 - 1, checked before anything is allocated.
ChaseList build_chase_list(std::size_t n, std::size_t block, int threads,
                           ShuffleMode mode, std::uint64_t seed = 1);

}  // namespace emusim::kernels
