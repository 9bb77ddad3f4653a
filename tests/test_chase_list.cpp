// Property tests for the pointer-chase list builder: every chain must visit
// each of its elements exactly once, chains must partition the list, and
// each shuffle mode must respect its structural guarantees.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "kernels/chase_common.hpp"

namespace emusim::kernels {
namespace {

struct ListCase {
  std::size_t n;
  std::size_t block;
  int threads;
  ShuffleMode mode;
};

void PrintTo(const ListCase& c, std::ostream* os) {
  *os << "n=" << c.n << " block=" << c.block << " threads=" << c.threads
      << " mode=" << to_string(c.mode);
}

class ChaseListProps : public ::testing::TestWithParam<ListCase> {};

TEST_P(ChaseListProps, ChainsPartitionAllElements) {
  const auto c = GetParam();
  const auto l = build_chase_list(c.n, c.block, c.threads, c.mode);
  std::set<std::uint32_t> seen;
  for (int t = 0; t < c.threads; ++t) {
    std::uint32_t idx = l.head[static_cast<std::size_t>(t)];
    std::size_t steps = 0;
    while (idx != kChaseEnd) {
      ASSERT_LT(steps++, c.n + 1) << "cycle detected in chain " << t;
      EXPECT_TRUE(seen.insert(idx).second) << "index visited twice: " << idx;
      idx = l.next[idx];
    }
  }
  EXPECT_EQ(seen.size(), c.n);
}

TEST_P(ChaseListProps, ExpectedSumsMatchTraversal) {
  const auto c = GetParam();
  const auto l = build_chase_list(c.n, c.block, c.threads, c.mode);
  for (int t = 0; t < c.threads; ++t) {
    std::int64_t sum = 0;
    std::uint32_t idx = l.head[static_cast<std::size_t>(t)];
    while (idx != kChaseEnd) {
      sum += l.payload[idx];
      idx = l.next[idx];
    }
    EXPECT_EQ(sum, l.expected_sum[static_cast<std::size_t>(t)]);
  }
}

TEST_P(ChaseListProps, BlocksAreFullyVisitedBeforeLeaving) {
  // The benchmark's defining property (paper Fig 2): all elements of a
  // block are accessed before the chain jumps to another block.
  const auto c = GetParam();
  const auto l = build_chase_list(c.n, c.block, c.threads, c.mode);
  for (int t = 0; t < c.threads; ++t) {
    std::set<std::uint64_t> finished_blocks;
    std::uint64_t cur_block = ~0ULL;
    std::size_t in_block = 0;
    std::uint32_t idx = l.head[static_cast<std::size_t>(t)];
    while (idx != kChaseEnd) {
      const std::uint64_t b = idx / c.block;
      if (b != cur_block) {
        if (cur_block != ~0ULL) {
          EXPECT_EQ(in_block, c.block) << "left block " << cur_block
                                       << " before finishing it";
          EXPECT_TRUE(finished_blocks.insert(cur_block).second);
        }
        cur_block = b;
        in_block = 0;
      }
      ++in_block;
      idx = l.next[idx];
    }
    if (cur_block != ~0ULL) {
      EXPECT_EQ(in_block, c.block);
    }
  }
}

TEST_P(ChaseListProps, DeterministicForSeed) {
  const auto c = GetParam();
  const auto a = build_chase_list(c.n, c.block, c.threads, c.mode, 5);
  const auto b = build_chase_list(c.n, c.block, c.threads, c.mode, 5);
  EXPECT_EQ(a.next, b.next);
  EXPECT_EQ(a.head, b.head);
  const auto d = build_chase_list(c.n, c.block, c.threads, c.mode, 6);
  if (c.mode != ShuffleMode::none && c.n / c.block > 2) {
    EXPECT_NE(a.next, d.next) << "different seeds should differ";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaseListProps,
    ::testing::Values(
        ListCase{64, 1, 1, ShuffleMode::full_block_shuffle},
        ListCase{64, 8, 2, ShuffleMode::full_block_shuffle},
        ListCase{256, 4, 4, ShuffleMode::block_shuffle},
        ListCase{256, 16, 4, ShuffleMode::intra_block_shuffle},
        ListCase{1024, 32, 8, ShuffleMode::full_block_shuffle},
        ListCase{1024, 1, 16, ShuffleMode::block_shuffle},
        ListCase{512, 512, 1, ShuffleMode::intra_block_shuffle},
        ListCase{960, 8, 5, ShuffleMode::full_block_shuffle},
        ListCase{128, 2, 2, ShuffleMode::none},
        ListCase{1024, 64, 3, ShuffleMode::full_block_shuffle}));

TEST(ChaseList, NoneModeIsFullySequential) {
  const auto l = build_chase_list(64, 8, 1, ShuffleMode::none);
  std::uint32_t idx = l.head[0];
  for (std::uint32_t expect = 0; expect < 64; ++expect) {
    ASSERT_EQ(idx, expect);
    idx = l.next[idx];
  }
  EXPECT_EQ(idx, kChaseEnd);
}

TEST(ChaseList, BlockShuffleKeepsIntraOrderSequential) {
  const auto l = build_chase_list(256, 8, 1, ShuffleMode::block_shuffle);
  std::uint32_t idx = l.head[0];
  while (idx != kChaseEnd) {
    const std::uint32_t next = l.next[idx];
    if (next != kChaseEnd && next / 8 == idx / 8) {
      EXPECT_EQ(next, idx + 1) << "intra-block order must stay sequential";
    }
    idx = next;
  }
}

TEST(ChaseList, FullShuffleActuallyShufflesWithinBlocks) {
  const auto l = build_chase_list(512, 64, 1, ShuffleMode::full_block_shuffle);
  std::uint32_t idx = l.head[0];
  int sequential_steps = 0, total_steps = 0;
  while (idx != kChaseEnd) {
    const std::uint32_t next = l.next[idx];
    if (next != kChaseEnd) {
      ++total_steps;
      if (next == idx + 1) ++sequential_steps;
    }
    idx = next;
  }
  // A shuffled 64-element block has far fewer than half sequential hops.
  EXPECT_LT(sequential_steps * 2, total_steps);
}

TEST(ChaseList, UnevenThreadSplitStillCoversEverything) {
  // 100 blocks over 7 threads: ranges differ by one block.
  const auto l = build_chase_list(800, 8, 7, ShuffleMode::full_block_shuffle);
  std::size_t visited = 0;
  for (int t = 0; t < 7; ++t) {
    std::uint32_t idx = l.head[static_cast<std::size_t>(t)];
    while (idx != kChaseEnd) {
      ++visited;
      idx = l.next[idx];
    }
  }
  EXPECT_EQ(visited, 800u);
}

TEST(ChaseList, Block1FullShuffleEqualsBlockShuffle) {
  // At block 1 the intra-block shuffle permutes one element, and
  // Rng::shuffle draws nothing for a size-1 range, so the two modes consume
  // the same random stream and build the same list.
  for (const std::uint64_t seed : {1u, 7u, 97u}) {
    for (const int threads : {1, 4, 16}) {
      const auto full = build_chase_list(512, 1, threads,
                                         ShuffleMode::full_block_shuffle, seed);
      const auto blk = build_chase_list(512, 1, threads,
                                        ShuffleMode::block_shuffle, seed);
      EXPECT_EQ(full.head, blk.head) << "seed=" << seed << " t=" << threads;
      EXPECT_EQ(full.next, blk.next) << "seed=" << seed << " t=" << threads;
      EXPECT_EQ(full.payload, blk.payload)
          << "seed=" << seed << " t=" << threads;
      EXPECT_EQ(full.expected_sum, blk.expected_sum)
          << "seed=" << seed << " t=" << threads;
    }
  }
}

TEST(ChaseList, RejectsMoreElementsThanU32IndicesBeforeAllocating) {
  // 2^32 - 1 is the tail sentinel, so the largest list has 2^32 - 2
  // elements.  The check runs first: at this size the two arrays alone
  // would be 32 GiB, so an allocation would fail with bad_alloc instead.
  const std::size_t too_many = std::size_t{1} << 32;
  EXPECT_DEATH(build_chase_list(too_many - 1, 1, 1, ShuffleMode::none),
               "chase list too long for u32 indices");
  EXPECT_DEATH(build_chase_list(too_many, 1, 1, ShuffleMode::none),
               "chase list too long for u32 indices");
}

}  // namespace
}  // namespace emusim::kernels
