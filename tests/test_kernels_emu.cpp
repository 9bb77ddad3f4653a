// Behavioural tests of the Emu-side kernels: functional verification plus
// the migration/spawn accounting each workload must exhibit.
#include <gtest/gtest.h>

#include "emu/machine.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/gups.hpp"
#include "kernels/pingpong.hpp"
#include "kernels/spmv_emu.hpp"
#include "kernels/stream_emu.hpp"

namespace emusim::kernels {
namespace {

emu::SystemConfig hw() { return emu::SystemConfig::chick_hw(); }

// --- STREAM ---------------------------------------------------------------

class StreamStrategies : public ::testing::TestWithParam<SpawnStrategy> {};

TEST_P(StreamStrategies, ComputesCorrectSums) {
  StreamParams p;
  p.n = 1 << 12;
  p.threads = 32;
  p.strategy = GetParam();
  const auto r = run_stream_add(hw(), p);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.mb_per_sec, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, StreamStrategies,
    ::testing::Values(SpawnStrategy::serial_spawn,
                      SpawnStrategy::recursive_spawn,
                      SpawnStrategy::serial_remote_spawn,
                      SpawnStrategy::recursive_remote_spawn));

TEST(StreamEmu, RemoteSpawnWorkersDoNotMigrateSteadyState) {
  StreamParams p;
  p.n = 1 << 14;
  p.threads = 64;
  p.strategy = SpawnStrategy::serial_remote_spawn;
  const auto r = run_stream_add(hw(), p);
  EXPECT_TRUE(r.verified);
  // Remote-spawned workers are born on their data's nodelet.
  EXPECT_EQ(r.migrations, 0u);
}

TEST(StreamEmu, LocalSpawnWorkersMigratePerElement) {
  StreamParams p;
  p.n = 1 << 14;
  p.threads = 64;
  p.strategy = SpawnStrategy::serial_spawn;
  const auto r = run_stream_add(hw(), p);
  EXPECT_TRUE(r.verified);
  // Contiguous global ranges over word-striped arrays: nearly every element
  // is a hop to the next nodelet.
  EXPECT_GT(r.migrations, static_cast<std::uint64_t>(p.n) * 9 / 10);
}

TEST(StreamEmu, RemoteBeatsLocalOnEightNodelets) {
  StreamParams p;
  p.n = 1 << 16;
  p.threads = 256;
  p.strategy = SpawnStrategy::serial_spawn;
  const auto local = run_stream_add(hw(), p);
  p.strategy = SpawnStrategy::serial_remote_spawn;
  const auto remote = run_stream_add(hw(), p);
  EXPECT_GT(remote.mb_per_sec, 2.0 * local.mb_per_sec);
}

TEST(StreamEmu, SingleNodeletSaturatesAroundPlateau) {
  // Fig 4 shape: 64 threads on one nodelet land near the ~145 MB/s plateau,
  // and 4 threads are far below it.
  StreamParams p;
  p.n = 1 << 15;
  p.across = 1;
  p.threads = 4;
  const auto few = run_stream_add(hw(), p);
  p.threads = 64;
  const auto many = run_stream_add(hw(), p);
  EXPECT_GT(many.mb_per_sec, 2.0 * few.mb_per_sec);
  EXPECT_GT(many.mb_per_sec, 120.0);
  EXPECT_LT(many.mb_per_sec, 170.0);
}

TEST(StreamEmu, EightNodeletsApproachNodePeak) {
  StreamParams p;
  p.n = 1 << 18;
  p.threads = 512;
  p.strategy = SpawnStrategy::recursive_remote_spawn;
  const auto r = run_stream_add(hw(), p);
  // Paper: ~1.2 GB/s on one node card.
  EXPECT_GT(r.mb_per_sec, 950.0);
  EXPECT_LT(r.mb_per_sec, 1300.0);
}

// --- pointer chase ----------------------------------------------------------

TEST(ChaseEmu, VerifiesAcrossModes) {
  for (auto mode : {ShuffleMode::intra_block_shuffle, ShuffleMode::block_shuffle,
                    ShuffleMode::full_block_shuffle}) {
    ChaseEmuParams p;
    p.n = 1 << 13;
    p.block = 16;
    p.threads = 32;
    p.mode = mode;
    const auto r = run_chase_emu(hw(), p);
    EXPECT_TRUE(r.verified) << to_string(mode);
  }
}

TEST(ChaseEmu, BlockOneMigratesAlmostEveryHop) {
  ChaseEmuParams p;
  p.n = 1 << 13;
  p.block = 1;
  p.threads = 16;
  const auto r = run_chase_emu(hw(), p);
  // With 8 nodelets, a random hop stays local 1/8 of the time.
  EXPECT_GT(r.migrations_per_element, 0.80);
  EXPECT_LE(r.migrations_per_element, 1.0);
}

TEST(ChaseEmu, LargeBlocksMigrateOncePerBlock) {
  ChaseEmuParams p;
  p.n = 1 << 13;
  p.block = 64;
  p.threads = 16;
  const auto r = run_chase_emu(hw(), p);
  EXPECT_LT(r.migrations_per_element, 1.0 / 32.0);
}

TEST(ChaseEmu, FlatAcrossBlockSizesAboveRecovery) {
  // Fig 6: Emu is insensitive to locality once blocks hold >= ~8 elements.
  ChaseEmuParams p;
  p.n = 1 << 15;
  p.threads = 128;
  p.block = 8;
  const auto b8 = run_chase_emu(hw(), p);
  p.block = 256;
  const auto b256 = run_chase_emu(hw(), p);
  EXPECT_NEAR(b8.mb_per_sec / b256.mb_per_sec, 1.0, 0.25);
}

TEST(ChaseEmu, BlockOneIsMigrationBound) {
  ChaseEmuParams p;
  p.n = 1 << 15;
  p.threads = 256;
  p.block = 1;
  const auto worst = run_chase_emu(hw(), p);
  p.block = 64;
  const auto good = run_chase_emu(hw(), p);
  EXPECT_GT(good.mb_per_sec, 3.0 * worst.mb_per_sec);
  // Throughput at block 1 ~ migration engine rate (9 M/s) x 16 B.
  EXPECT_NEAR(worst.mb_per_sec, 9.0 * 16, 40.0);
}

TEST(ChaseEmu, ReadsTheListInPlaceWithNoHostMirror) {
  // The worker reads payload and next straight from the shared ChaseList;
  // the striped element view only supplies homes and simulated addresses,
  // so a point materializes no element bytes on any nodelet.
  ChaseEmuParams p;
  p.n = 1 << 13;
  p.block = 16;
  p.threads = 32;
  emu::take_run_telemetry();  // drop anything earlier tests accumulated
  const auto r = run_chase_emu(hw(), p);
  ASSERT_TRUE(r.verified);
  const emu::RunTelemetry tel = emu::take_run_telemetry();
  EXPECT_GT(tel.engine_events, 0u);
  EXPECT_EQ(tel.peak_host_bytes, 0u);
}

TEST(ChaseEmu, MatchesPinnedResults) {
  // Simulated addresses follow the order in which a run allocates its
  // views, and spawn order sets event order; a refactor that moves either
  // shifts elapsed time.  The values were recorded before the two Emu
  // chase kernels shared one worker and spawn tree.
  ChaseEmuParams p;
  p.n = 1 << 13;
  p.block = 16;
  p.threads = 32;
  const auto r = run_chase_emu(hw(), p);
  ASSERT_TRUE(r.verified);
  EXPECT_EQ(r.elapsed, Time{357889309});
  EXPECT_EQ(r.migrations, 445u);
}

// --- SpMV --------------------------------------------------------------------

class SpmvLayouts : public ::testing::TestWithParam<SpmvLayout> {};

TEST_P(SpmvLayouts, ComputesCorrectProduct) {
  SpmvEmuParams p;
  p.laplacian_n = 30;
  p.layout = GetParam();
  const auto r = run_spmv_emu(hw(), p);
  EXPECT_TRUE(r.verified);
}

INSTANTIATE_TEST_SUITE_P(All, SpmvLayouts,
                         ::testing::Values(SpmvLayout::local, SpmvLayout::one_d,
                                           SpmvLayout::two_d));

TEST(SpmvEmu, LayoutOrderingMatchesPaper) {
  SpmvEmuParams p;
  p.laplacian_n = 60;
  p.layout = SpmvLayout::local;
  const auto local = run_spmv_emu(hw(), p);
  p.layout = SpmvLayout::one_d;
  const auto one_d = run_spmv_emu(hw(), p);
  p.layout = SpmvLayout::two_d;
  const auto two_d = run_spmv_emu(hw(), p);
  EXPECT_GT(one_d.mb_per_sec, local.mb_per_sec);
  EXPECT_GT(two_d.mb_per_sec, one_d.mb_per_sec);
}

TEST(SpmvEmu, OneDMigratesAboutOncePerNonzero) {
  SpmvEmuParams p;
  p.laplacian_n = 40;
  p.layout = SpmvLayout::one_d;
  const auto r = run_spmv_emu(hw(), p);
  const double nnz = 5.0 * 40 * 40 - 4 * 40;
  const double per = static_cast<double>(r.migrations) / nnz;
  EXPECT_GT(per, 0.8);
  EXPECT_LT(per, 2.0);  // row-pointer walks add some
}

TEST(SpmvEmu, LocalAndTwoDDoNotMigrate) {
  for (auto layout : {SpmvLayout::local, SpmvLayout::two_d}) {
    SpmvEmuParams p;
    p.laplacian_n = 40;
    p.layout = layout;
    const auto r = run_spmv_emu(hw(), p);
    EXPECT_EQ(r.migrations, 0u) << to_string(layout);
  }
}

// --- ping-pong -----------------------------------------------------------------

TEST(PingPong, ThroughputTracksEngineRate) {
  PingPongParams p;
  p.threads = 64;
  p.round_trips = 500;
  const auto r = run_pingpong(hw(), p);
  EXPECT_NEAR(r.migrations_per_sec / 1e6, 9.0, 0.5);
  const auto sim = run_pingpong(emu::SystemConfig::chick_as_simulated(), p);
  EXPECT_NEAR(sim.migrations_per_sec / 1e6, 16.0, 1.0);
}

TEST(PingPong, SingleThreadLatencyInPaperRange) {
  PingPongParams p;
  p.threads = 1;
  p.round_trips = 200;
  const auto r = run_pingpong(hw(), p);
  EXPECT_GT(r.mean_latency_us, 1.0);
  EXPECT_LT(r.mean_latency_us, 2.0);
}

TEST(PingPong, CountsExactMigrations) {
  PingPongParams p;
  p.threads = 3;
  p.round_trips = 10;
  const auto r = run_pingpong(hw(), p);
  EXPECT_EQ(r.migrations, 3u * 10u * 2u);
}

// --- GUPS ------------------------------------------------------------------------

TEST(GupsEmu, RemoteAtomicsNeverMigrate) {
  GupsParams p;
  p.table_words = 1 << 12;
  p.updates = 1 << 12;
  p.threads = 64;
  const auto r = run_gups_emu(hw(), p);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_GT(r.giga_updates_per_sec, 0.0);
}

}  // namespace
}  // namespace emusim::kernels
