#include "kernels/chase_common.hpp"

#include <algorithm>

namespace emusim::kernels {

const char* to_string(ShuffleMode m) {
  switch (m) {
    case ShuffleMode::none: return "none";
    case ShuffleMode::intra_block_shuffle: return "intra_block_shuffle";
    case ShuffleMode::block_shuffle: return "block_shuffle";
    case ShuffleMode::full_block_shuffle: return "full_block_shuffle";
  }
  return "?";
}

ChaseList build_chase_list(std::size_t n, std::size_t block, int threads,
                           ShuffleMode mode, std::uint64_t seed) {
  EMUSIM_CHECK(block >= 1 && n % block == 0);
  const std::size_t num_blocks = n / block;
  EMUSIM_CHECK(threads >= 1 &&
               num_blocks >= static_cast<std::size_t>(threads));

  ChaseList list;
  list.n = n;
  list.block = block;
  list.threads = threads;
  list.next.assign(n, kChaseEnd);
  list.payload.resize(n);
  list.head.resize(static_cast<std::size_t>(threads));
  list.expected_sum.assign(static_cast<std::size_t>(threads), 0);

  sim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    list.payload[i] = static_cast<std::int64_t>(rng.next() & 0xFFFFFF);
  }

  const bool shuffle_intra = mode == ShuffleMode::intra_block_shuffle ||
                             mode == ShuffleMode::full_block_shuffle;
  const bool shuffle_blocks = mode == ShuffleMode::block_shuffle ||
                              mode == ShuffleMode::full_block_shuffle;

  // u32 halves the largest temporary; the shuffle draws the same numbers
  // whatever the element type, so every list is unchanged.
  EMUSIM_CHECK(num_blocks <= UINT32_MAX);
  std::vector<std::uint32_t> block_order;
  std::vector<std::uint64_t> elem_order(block);

  for (int t = 0; t < threads; ++t) {
    // Thread t owns the contiguous block range [first, last); ranges differ
    // by at most one block when threads does not divide the block count.
    const std::size_t first_block =
        num_blocks * static_cast<std::size_t>(t) /
        static_cast<std::size_t>(threads);
    const std::size_t last_block =
        num_blocks * static_cast<std::size_t>(t + 1) /
        static_cast<std::size_t>(threads);
    const std::size_t blocks_per_thread = last_block - first_block;
    block_order.resize(blocks_per_thread);
    for (std::size_t k = 0; k < blocks_per_thread; ++k) {
      block_order[k] = static_cast<std::uint32_t>(first_block + k);
    }
    if (shuffle_blocks) {
      rng.shuffle(block_order);
    } else if (mode == ShuffleMode::intra_block_shuffle &&
               blocks_per_thread > 1) {
      // Ordered block traversal, but start each chain at a random phase
      // (cyclic order).  Without this every thread visits the striped
      // nodelets in lockstep and the whole fleet convoys on one memory
      // channel at a time — an artifact of the simulator's perfectly
      // synchronized start that hardware jitter destroys.
      const std::size_t rot =
          static_cast<std::size_t>(rng.below(blocks_per_thread));
      std::rotate(block_order.begin(),
                  block_order.begin() + static_cast<std::ptrdiff_t>(rot),
                  block_order.end());
    }

    std::uint64_t prev = kChaseEnd;
    for (std::size_t k = 0; k < blocks_per_thread; ++k) {
      const std::uint64_t b = block_order[k];
      for (std::size_t e = 0; e < block; ++e) {
        elem_order[e] = b * block + e;
      }
      if (shuffle_intra) rng.shuffle(elem_order);
      for (std::size_t e = 0; e < block; ++e) {
        const std::uint64_t idx = elem_order[e];
        if (prev == kChaseEnd) {
          list.head[static_cast<std::size_t>(t)] = idx;
        } else {
          list.next[prev] = idx;
        }
        prev = idx;
        list.expected_sum[static_cast<std::size_t>(t)] += list.payload[idx];
      }
    }
    // prev is the tail; its next stays kChaseEnd.
  }
  return list;
}

}  // namespace emusim::kernels
