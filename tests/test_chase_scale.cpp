// Unit tests for the at-scale procedural pointer chase (run_chase_scale):
// checksum verification on the scaling config family, the O(nodelets)
// host-memory contract (peak bytes never track n), and the run telemetry the
// scale_chase bench reports (engine events, peak host bytes).
#include <gtest/gtest.h>

#include "emu/machine.hpp"
#include "kernels/chase_scale.hpp"

namespace emusim {
namespace {

kernels::ChaseScaleParams small_params() {
  kernels::ChaseScaleParams p;
  p.n = std::size_t{1} << 16;
  p.block = 64;
  p.threads = 32;
  p.elems_per_thread = 256;
  return p;
}

TEST(ChaseScale, VerifiesInBothBlockOrders) {
  const auto cfg = emu::SystemConfig::chick_fullspeed_nx(16);
  for (const bool shuffled : {false, true}) {
    auto p = small_params();
    p.shuffled = shuffled;
    const auto r = kernels::run_chase_scale(cfg, p);
    EXPECT_TRUE(r.verified) << "shuffled=" << shuffled;
    EXPECT_GT(r.mb_per_sec, 0.0);
    EXPECT_GT(r.elapsed, 0);
    EXPECT_GT(r.migrations, 0u);
  }
}

TEST(ChaseScale, MigratesAboutOncePerBlock) {
  // Block-cyclic striping sends consecutive blocks to consecutive nodelets,
  // so both walk orders change nodelet nearly every block: migrations per
  // element should sit near 1/block (spawn-tree hops add a little).
  const auto cfg = emu::SystemConfig::chick_fullspeed_nx(16);
  const auto p = small_params();
  const auto r = kernels::run_chase_scale(cfg, p);
  ASSERT_TRUE(r.verified);
  EXPECT_GT(r.migrations_per_element, 0.5 / static_cast<double>(p.block));
  EXPECT_LT(r.migrations_per_element, 2.0 / static_cast<double>(p.block));
}

TEST(ChaseScale, HostPeakIsPerChainSlotsNotDataSize) {
  // The whole point of the lazily chunked views: the n-element region is
  // address math only, so peak host bytes equal the per-chain checksum
  // array (threads * 8 bytes) — identical at 2^16 and 2^24 elements.
  const auto cfg = emu::SystemConfig::chick_fullspeed_nx(16);
  auto p = small_params();
  const std::uint64_t slot_bytes =
      static_cast<std::uint64_t>(p.threads) * sizeof(std::int64_t);

  emu::take_run_telemetry();  // drop anything earlier tests accumulated
  ASSERT_TRUE(kernels::run_chase_scale(cfg, p).verified);
  EXPECT_EQ(emu::take_run_telemetry().peak_host_bytes, slot_bytes);

  p.n = std::size_t{1} << 24;  // 256x the data, same footprint
  ASSERT_TRUE(kernels::run_chase_scale(cfg, p).verified);
  EXPECT_EQ(emu::take_run_telemetry().peak_host_bytes, slot_bytes);
}

TEST(ChaseScale, RunTelemetryReportsEventsAndPeakBytes) {
  const auto cfg = emu::SystemConfig::chick_fullspeed_nx(16);
  const auto p = small_params();
  emu::take_run_telemetry();  // drop anything earlier tests accumulated
  const auto r = kernels::run_chase_scale(cfg, p);
  ASSERT_TRUE(r.verified);
  const emu::RunTelemetry tel = emu::take_run_telemetry();
  EXPECT_GT(tel.engine_events, 0u);
  EXPECT_EQ(tel.peak_host_bytes,
            static_cast<std::uint64_t>(p.threads) * sizeof(std::int64_t));
  // take semantics: a second take reads a reset accumulator.
  const emu::RunTelemetry again = emu::take_run_telemetry();
  EXPECT_EQ(again.engine_events, 0u);
  EXPECT_EQ(again.peak_host_bytes, 0u);
}

TEST(ChaseScale, MatchesPinnedResults) {
  // Simulated addresses follow the order in which a run allocates its
  // views (the region first, then the checksum slots), and spawn order sets
  // event order; a refactor that moves either shifts elapsed time.  At 8
  // nodelets both block orders move when the slots are allocated first.
  // The values were recorded before the two Emu chase kernels shared one
  // worker and spawn tree.
  const auto cfg = emu::SystemConfig::chick_fullspeed_nx(8);
  struct Pin {
    bool shuffled;
    Time elapsed;
    std::uint64_t migrations;
  };
  for (const Pin pin : {Pin{false, 132624836, 96},
                        Pin{true, 129961890, 96}}) {
    auto p = small_params();
    p.shuffled = pin.shuffled;
    const auto r = kernels::run_chase_scale(cfg, p);
    ASSERT_TRUE(r.verified) << "shuffled=" << pin.shuffled;
    EXPECT_EQ(r.elapsed, pin.elapsed) << "shuffled=" << pin.shuffled;
    EXPECT_EQ(r.migrations, pin.migrations) << "shuffled=" << pin.shuffled;
  }
}

TEST(ChaseScale, WorkIsFixedPerThreadRegardlessOfDataSize) {
  // Fixed per-chain work is what makes billion-element points affordable:
  // simulated time may differ slightly (different block walks), but stays
  // within a narrow band as n grows 256x.
  const auto cfg = emu::SystemConfig::chick_fullspeed_nx(16);
  auto p = small_params();
  const auto small = kernels::run_chase_scale(cfg, p);
  p.n = std::size_t{1} << 24;
  const auto big = kernels::run_chase_scale(cfg, p);
  ASSERT_TRUE(small.verified);
  ASSERT_TRUE(big.verified);
  EXPECT_LT(to_seconds(big.elapsed), 1.5 * to_seconds(small.elapsed));
  EXPECT_GT(to_seconds(big.elapsed), 0.5 * to_seconds(small.elapsed));
}

}  // namespace
}  // namespace emusim
