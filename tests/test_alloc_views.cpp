// Property tests for the distributed allocation views: for every (n, block,
// across) combination, the striping must partition indices exactly, local
// addresses must not collide, and the local/global index maps must be
// mutual inverses.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <type_traits>

#include "emu/runtime/alloc.hpp"

namespace emusim::emu {
namespace {

struct StripeCase {
  std::size_t n;
  std::size_t block;
  // 0 = all nodelets.  64 bits wide so the struct has no padding: gtest names
  // each case by dumping its bytes, and padding bytes would make those ctest
  // names differ from build to build.
  std::int64_t across;
};
static_assert(std::has_unique_object_representations_v<StripeCase>);

class StripedProps : public ::testing::TestWithParam<StripeCase> {};

TEST_P(StripedProps, HomesPartitionAndAddressesAreUnique) {
  const auto c = GetParam();
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> v(m, c.n, c.block, c.across);
  const int nlets = c.across > 0 ? c.across : m.num_nodelets();

  std::map<int, std::set<std::uint64_t>> addrs_by_home;
  std::map<int, std::size_t> count_by_home;
  for (std::size_t i = 0; i < c.n; ++i) {
    const int h = v.home(i);
    ASSERT_GE(h, 0);
    ASSERT_LT(h, nlets);
    // Addresses within a home nodelet must be unique and 8-byte aligned.
    const auto addr = v.byte_addr(i);
    EXPECT_EQ(addr % 8, 0u);
    EXPECT_TRUE(addrs_by_home[h].insert(addr).second)
        << "address collision at index " << i;
    ++count_by_home[h];
  }

  // elems_on must agree with the explicit count, and sum to n.
  std::size_t total = 0;
  for (int d = 0; d < nlets; ++d) {
    EXPECT_EQ(v.elems_on(d), count_by_home[d]) << "nodelet " << d;
    total += v.elems_on(d);
  }
  EXPECT_EQ(total, c.n);
}

TEST_P(StripedProps, GlobalIndexInvertsLocalEnumeration) {
  const auto c = GetParam();
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> v(m, c.n, c.block, c.across);
  const int nlets = c.across > 0 ? c.across : m.num_nodelets();

  std::set<std::size_t> seen;
  for (int d = 0; d < nlets; ++d) {
    for (std::size_t k = 0; k < v.elems_on(d); ++k) {
      const std::size_t i = v.global_index(d, k);
      ASSERT_LT(i, c.n);
      EXPECT_EQ(v.home(i), d);
      EXPECT_TRUE(seen.insert(i).second) << "duplicate global index " << i;
    }
  }
  EXPECT_EQ(seen.size(), c.n);
}

TEST_P(StripedProps, BlocksAreContiguousWithinANodelet) {
  const auto c = GetParam();
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> v(m, c.n, c.block, c.across);
  // Within one block, consecutive global indices must be adjacent in the
  // home nodelet's memory (this is what makes intra-block access local and
  // row-buffer friendly).
  for (std::size_t i = 0; i + 1 < c.n; ++i) {
    if ((i / c.block) == ((i + 1) / c.block)) {
      EXPECT_EQ(v.home(i), v.home(i + 1));
      EXPECT_EQ(v.byte_addr(i + 1), v.byte_addr(i) + 8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StripedProps,
    ::testing::Values(StripeCase{1, 1, 0}, StripeCase{7, 1, 0},
                      StripeCase{8, 1, 0}, StripeCase{64, 1, 0},
                      StripeCase{100, 1, 0}, StripeCase{100, 4, 0},
                      StripeCase{96, 8, 0}, StripeCase{1000, 16, 0},
                      StripeCase{100, 1, 1}, StripeCase{100, 8, 1},
                      StripeCase{100, 4, 3}, StripeCase{513, 64, 0},
                      StripeCase{4096, 512, 0}, StripeCase{33, 32, 5}));

TEST(LocalArrayView, FixedHomeAndDenseAddresses) {
  Machine m(SystemConfig::chick_hw());
  LocalArray<double> v(m, 100, 3);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(v.home(i), 3);
    EXPECT_EQ(v.byte_addr(i), v.byte_addr(0) + i * sizeof(double));
  }
}

TEST(ReplicatedView, PerNodeletCopiesHaveDistinctAddresses) {
  Machine m(SystemConfig::chick_hw());
  Replicated<std::int64_t> v(m, 10);
  std::set<std::uint64_t> bases;
  for (int d = 0; d < m.num_nodelets(); ++d) {
    bases.insert(v.byte_addr_on(d, 0));
  }
  // Bases may legitimately coincide numerically across nodelets (separate
  // address spaces), but within a machine built fresh they all start at
  // offset 0 of each arena — what matters is that indexing is dense.
  for (int d = 0; d < m.num_nodelets(); ++d) {
    EXPECT_EQ(v.byte_addr_on(d, 7), v.byte_addr_on(d, 0) + 56);
  }
}

TEST(ChunkedView, SizesAndHomesMatchRequest) {
  Machine m(SystemConfig::chick_hw());
  std::vector<std::size_t> counts = {5, 0, 3, 1, 0, 0, 2, 9};
  Chunked<int> v(m, counts);
  for (int d = 0; d < 8; ++d) {
    EXPECT_EQ(v.chunk_size(d), counts[static_cast<std::size_t>(d)]);
    EXPECT_EQ(v.home(d), d);
  }
  v.at(7, 8) = 77;
  EXPECT_EQ(v.at(7, 8), 77);
}

// --- lazily chunked host storage -------------------------------------------
//
// The host mirror is chunked per participating nodelet and materialized on
// first touch.  These tests pin the semantics the dense mirror used to give
// (zero-init, stable element identity, full round-trips) plus the new
// contracts: untouched views cost nothing, a touch materializes exactly one
// home's chunk, and the machine footprint tracks chunk bytes.

TEST_P(StripedProps, ElementsRoundTripThroughTheChunkedLayout) {
  const auto c = GetParam();
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> v(m, c.n, c.block, c.across);
  // Dense-mirror semantics: every element reads zero before any write.
  for (std::size_t i = 0; i < c.n; ++i) {
    ASSERT_EQ(v[i], 0) << "index " << i;
  }
  // Distinct value per index, written through the global operator[].
  for (std::size_t i = 0; i < c.n; ++i) {
    v[i] = static_cast<std::int64_t>(i * 3 + 1);
  }
  for (std::size_t i = 0; i < c.n; ++i) {
    ASSERT_EQ(v[i], static_cast<std::int64_t>(i * 3 + 1)) << "index " << i;
  }
  // The same elements seen through the local (nodelet, k) enumeration:
  // operator[] of global_index(d, k) must walk every element exactly once
  // with the values intact — i.e. the global->(chunk, local) map used by
  // element access inverts the enumeration the address math uses.
  const int nlets = c.across > 0 ? c.across : m.num_nodelets();
  std::size_t seen = 0;
  for (int d = 0; d < nlets; ++d) {
    for (std::size_t k = 0; k < v.elems_on(d); ++k) {
      const std::size_t i = v.global_index(d, k);
      ASSERT_EQ(v[i], static_cast<std::int64_t>(i * 3 + 1));
      ++seen;
    }
  }
  EXPECT_EQ(seen, c.n);
  // Everything is now materialized; the footprint must charge exactly the
  // element bytes (n > 0 touches every nodelet that homes elements).
  EXPECT_EQ(v.host_bytes(), c.n * sizeof(std::int64_t));
  EXPECT_EQ(m.host_footprint().current(), c.n * sizeof(std::int64_t));
}

TEST(LazyStriped, UntouchedBillionElementViewMaterializesNothing) {
  Machine m(SystemConfig::chick_hw());
  // 2^30 elements = 8 GiB dense — the old mirror would allocate it here.
  const std::size_t n = std::size_t{1} << 30;
  Striped1D<std::int64_t> v(m, n, 64);
  EXPECT_EQ(v.size(), n);
  EXPECT_EQ(v.host_bytes(), 0u);
  EXPECT_EQ(m.host_footprint().current(), 0u);
  EXPECT_EQ(m.host_footprint().peak(), 0u);
  // Address/home math must work across the whole region without touching
  // host storage.
  const std::size_t far = n - 3;
  EXPECT_GE(v.home(far), 0);
  EXPECT_LT(v.home(far), m.num_nodelets());
  EXPECT_EQ(v.byte_addr(far) % 8, 0u);
  for (int d = 0; d < m.num_nodelets(); ++d) {
    EXPECT_FALSE(v.chunk_materialized(d));
  }
}

TEST(LazyStriped, TouchMaterializesOnlyTheHomeChunk) {
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> v(m, 1024, 4);
  const std::size_t i = 10;  // block 2 -> nodelet 2 under block=4 striping
  v[i] = 42;
  const int h = v.home(i);
  for (int d = 0; d < m.num_nodelets(); ++d) {
    EXPECT_EQ(v.chunk_materialized(d), d == h) << "nodelet " << d;
  }
  const std::uint64_t chunk_bytes = v.elems_on(h) * sizeof(std::int64_t);
  EXPECT_EQ(v.host_bytes(), chunk_bytes);
  EXPECT_EQ(m.host_footprint().current(), chunk_bytes);
  EXPECT_EQ(m.host_footprint().peak(), chunk_bytes);
  EXPECT_EQ(v[i], 42);
  // Other elements of the same chunk were zero-initialized by the touch.
  EXPECT_EQ(v[i + 1], 0);
}

TEST(LazyStriped, FootprintReleasesOnDestructionButPeakPersists) {
  Machine m(SystemConfig::chick_hw());
  {
    Striped1D<std::int64_t> v(m, 256);
    for (std::size_t i = 0; i < 256; ++i) v[i] = 1;
    EXPECT_EQ(m.host_footprint().current(), 256 * sizeof(std::int64_t));
  }
  EXPECT_EQ(m.host_footprint().current(), 0u);
  EXPECT_EQ(m.host_footprint().peak(), 256 * sizeof(std::int64_t));
}

TEST(LazyStriped, ZeroSizeViewIsWellFormed) {
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> v(m, 0);
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.host_bytes(), 0u);
  for (int d = 0; d < m.num_nodelets(); ++d) {
    EXPECT_EQ(v.elems_on(d), 0u);
  }
}

TEST(LazyStriped, SingleNodeletDegenerateRoundTrips) {
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> v(m, 100, 8, /*across=*/1);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(v.home(i), 0);
    v[i] = static_cast<std::int64_t>(1000 - i);
  }
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(v[i], static_cast<std::int64_t>(1000 - i));
  }
  EXPECT_EQ(v.host_bytes(), 100 * sizeof(std::int64_t));
}

TEST(LazyStriped, MoveTransfersChunksAndFootprint) {
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> a(m, 64);
  a[7] = 7;
  const std::uint64_t charged = m.host_footprint().current();
  EXPECT_GT(charged, 0u);
  Striped1D<std::int64_t> b(std::move(a));
  EXPECT_EQ(b[7], 7);
  EXPECT_EQ(b.host_bytes(), charged);
  // The charge moved with the chunks — no double count, no early release.
  EXPECT_EQ(m.host_footprint().current(), charged);
}

TEST(LazyViews, LocalReplicatedAndChunkedAreLazyToo) {
  Machine m(SystemConfig::chick_hw());
  LocalArray<double> local(m, 50, 2);
  Replicated<std::int64_t> repl(m, 20);
  Chunked<int> chunked(m, {4, 0, 0, 0, 0, 0, 0, 4});
  EXPECT_EQ(local.host_bytes(), 0u);
  EXPECT_EQ(repl.host_bytes(), 0u);
  EXPECT_EQ(chunked.host_bytes(), 0u);
  EXPECT_EQ(m.host_footprint().current(), 0u);
  local[0] = 1.5;
  repl[3] = 9;
  chunked.at(7, 1) = 4;
  EXPECT_EQ(local.host_bytes(), 50 * sizeof(double));
  // Replicated keeps ONE functional host image regardless of nodelet count.
  EXPECT_EQ(repl.host_bytes(), 20 * sizeof(std::int64_t));
  EXPECT_EQ(chunked.host_bytes(), 4 * sizeof(int));
  EXPECT_EQ(m.host_footprint().current(),
            local.host_bytes() + repl.host_bytes() + chunked.host_bytes());
}

TEST(Views, ArenasAdvancePerAllocation) {
  Machine m(SystemConfig::chick_hw());
  Striped1D<std::int64_t> a(m, 64);
  Striped1D<std::int64_t> b(m, 64);
  // Two allocations on the same machine must not overlap on any nodelet.
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      if (a.home(i) == b.home(j)) {
        EXPECT_NE(a.byte_addr(i), b.byte_addr(j));
      }
    }
  }
}

}  // namespace
}  // namespace emusim::emu
