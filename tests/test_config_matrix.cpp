// Configuration matrix smoke tests: every named machine configuration must
// construct and run a representative kernel correctly.  Catches config
// regressions (topology arithmetic, clock scaling, resource sizing) across
// the whole configuration space.
#include <gtest/gtest.h>

#include "emu/machine.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/chase_xeon.hpp"
#include "kernels/stream_emu.hpp"
#include "kernels/stream_xeon.hpp"
#include "xeon/machine.hpp"

namespace emusim {
namespace {

// Each parameter carries its config name and prints as that name, so the
// ctest name of a case is stable across builds (a bare function pointer
// prints as its load address).
struct EmuConfigCase {
  const char* name;
  emu::SystemConfig (*make)();
};
void PrintTo(const EmuConfigCase& c, std::ostream* os) { *os << c.name; }

emu::SystemConfig fullspeed8() { return emu::SystemConfig::fullspeed_multinode(8); }
emu::SystemConfig fullspeed2() { return emu::SystemConfig::fullspeed_multinode(2); }

class EmuConfigs : public ::testing::TestWithParam<EmuConfigCase> {};

TEST_P(EmuConfigs, TopologyIsConsistent) {
  const auto cfg = GetParam().make();
  emu::Machine m(cfg);
  EXPECT_EQ(m.num_nodelets(), cfg.nodes * cfg.nodelets_per_node);
  EXPECT_GT(m.cycle(), 0);
  for (int d = 0; d < m.num_nodelets(); ++d) {
    EXPECT_EQ(m.nodelet(d).slots().available(), cfg.slots_per_nodelet());
    EXPECT_EQ(m.nodelet(d).num_cores(), cfg.gcs_per_nodelet);
  }
  EXPECT_EQ(m.node_index_of(m.num_nodelets() - 1), cfg.nodes - 1);
}

TEST_P(EmuConfigs, StreamRunsAndVerifies) {
  const auto cfg = GetParam().make();
  kernels::StreamParams p;
  p.n = 1 << 13;
  p.threads = 64;
  p.strategy = kernels::SpawnStrategy::recursive_remote_spawn;
  const auto r = kernels::run_stream_add(cfg, p);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.mb_per_sec, 0.0);
}

TEST_P(EmuConfigs, ChaseRunsAndVerifies) {
  const auto cfg = GetParam().make();
  kernels::ChaseEmuParams p;
  p.n = 1 << 12;
  p.block = 8;
  p.threads = 32;
  const auto r = kernels::run_chase_emu(cfg, p);
  EXPECT_TRUE(r.verified);
}

INSTANTIATE_TEST_SUITE_P(
    All, EmuConfigs,
    ::testing::Values(
        EmuConfigCase{"chick_hw", &emu::SystemConfig::chick_hw},
        EmuConfigCase{"chick_as_simulated",
                      &emu::SystemConfig::chick_as_simulated},
        EmuConfigCase{"chick_fullspeed", &emu::SystemConfig::chick_fullspeed},
        EmuConfigCase{"fullspeed2", &fullspeed2},
        EmuConfigCase{"fullspeed8", &fullspeed8}));

TEST(EmuConfigs2, FasterDesignPointsAreActuallyFaster) {
  kernels::StreamParams p;
  p.n = 1 << 14;
  p.threads = 256;
  p.strategy = kernels::SpawnStrategy::recursive_remote_spawn;
  const auto hw = kernels::run_stream_add(emu::SystemConfig::chick_hw(), p);
  const auto full =
      kernels::run_stream_add(emu::SystemConfig::chick_fullspeed(), p);
  // 2x clock and 4 GCs: comfortably more than 2x STREAM.
  EXPECT_GT(full.mb_per_sec, 2.0 * hw.mb_per_sec);
}

// --- config validation and the scaling family ------------------------------

TEST(ConfigValidation, NamedConfigsAllValidate) {
  emu::SystemConfig::chick_hw().validate();
  emu::SystemConfig::chick_as_simulated().validate();
  emu::SystemConfig::chick_fullspeed().validate();
  emu::SystemConfig::fullspeed_multinode(1).validate();
  emu::SystemConfig::fullspeed_multinode(128).validate();
  emu::SystemConfig::chick_fullspeed_nx(8).validate();
  emu::SystemConfig::chick_fullspeed_nx(1024).validate();
}

TEST(ConfigValidationDeathTest, RejectsNonPositiveNodeCounts) {
  // fullspeed_multinode(0) used to silently build a machine with zero
  // nodelets (and the first Striped1D then divided by zero).
  EXPECT_DEATH(emu::SystemConfig::fullspeed_multinode(0), "nodes >= 1");
  EXPECT_DEATH(emu::SystemConfig::fullspeed_multinode(-4), "nodes >= 1");
}

TEST(ConfigValidationDeathTest, RejectsOverflowingTopology) {
  emu::SystemConfig c = emu::SystemConfig::chick_fullspeed();
  // nodes * nodelets_per_node would overflow int without the division-form
  // guard; validate() must refuse long before total_nodelets() wraps.
  c.nodes = (1 << 20);  // 2^20 nodes * 8 nodelets/node > kMaxTotalNodelets
  EXPECT_DEATH(c.validate(), "total_nodelets");
  c = emu::SystemConfig::chick_fullspeed();
  c.gcs_per_nodelet = 1 << 16;
  c.threadlet_slots_per_gc = 1 << 16;
  EXPECT_DEATH(c.validate(), "slots_per_nodelet");
}

TEST(ConfigValidationDeathTest, RejectsNonPhysicalParameters) {
  emu::SystemConfig c = emu::SystemConfig::chick_hw();
  c.gc_clock_hz = 0.0;
  EXPECT_DEATH(c.validate(), "EMUSIM_CHECK");
  c = emu::SystemConfig::chick_hw();
  c.migrations_per_sec = -1.0;
  EXPECT_DEATH(c.validate(), "EMUSIM_CHECK");
  // Multi-node configs need a positive inter-node latency: the windowed
  // shard schedule's lookahead is exactly that latency, so zero would
  // deadlock window scheduling.
  c = emu::SystemConfig::fullspeed_multinode(2);
  c.internode_latency = 0;
  EXPECT_DEATH(c.validate(), "internode latency");
}

TEST(ConfigValidationDeathTest, ScalingFamilyWantsMultiplesOfEight) {
  EXPECT_DEATH(emu::SystemConfig::chick_fullspeed_nx(0), "multiple of 8");
  EXPECT_DEATH(emu::SystemConfig::chick_fullspeed_nx(-8), "multiple of 8");
  EXPECT_DEATH(emu::SystemConfig::chick_fullspeed_nx(12), "multiple of 8");
}

TEST(ScalingFamily, AddressesTheFullspeedTopologyByNodeletCount) {
  for (int nlets : {8, 64, 256, 1024}) {
    const auto cfg = emu::SystemConfig::chick_fullspeed_nx(nlets);
    EXPECT_EQ(cfg.total_nodelets(), nlets);
    EXPECT_EQ(cfg.nodes, nlets / 8);
    EXPECT_EQ(cfg.name, "chick_fullspeed_" + std::to_string(nlets) + "x");
    // Per-nodelet resources match the single-node fullspeed design point:
    // scaling changes the node count, never the node card.
    const auto one = emu::SystemConfig::chick_fullspeed();
    EXPECT_EQ(cfg.nodelets_per_node, one.nodelets_per_node);
    EXPECT_EQ(cfg.gcs_per_nodelet, one.gcs_per_nodelet);
    EXPECT_EQ(cfg.slots_per_nodelet(), one.slots_per_nodelet());
    EXPECT_EQ(cfg.gc_clock_hz, one.gc_clock_hz);
    if (cfg.nodes > 1) {
      EXPECT_GT(cfg.internode_latency, 0);
    }
  }
}

struct XeonConfigCase {
  const char* name;
  xeon::SystemConfig (*make)();
};
void PrintTo(const XeonConfigCase& c, std::ostream* os) { *os << c.name; }

class XeonConfigs : public ::testing::TestWithParam<XeonConfigCase> {};

TEST_P(XeonConfigs, StreamAndChaseRun) {
  const auto cfg = GetParam().make();
  kernels::StreamXeonParams sp;
  sp.n = 1 << 15;
  sp.threads = cfg.cores / 2;
  const auto sr = kernels::run_stream_xeon(cfg, sp);
  EXPECT_TRUE(sr.verified);
  EXPECT_LT(sr.mb_per_sec, cfg.peak_bytes_per_sec() / 1e6 * 1.01);

  kernels::ChaseXeonParams cp;
  cp.n = 1 << 13;
  cp.block = 16;
  cp.threads = 8;
  const auto cr = kernels::run_chase_xeon(cfg, cp);
  EXPECT_TRUE(cr.verified);
}

INSTANTIATE_TEST_SUITE_P(
    All, XeonConfigs,
    ::testing::Values(
        XeonConfigCase{"sandy_bridge", &xeon::SystemConfig::sandy_bridge},
        XeonConfigCase{"haswell", &xeon::SystemConfig::haswell}));

TEST(XeonConfigs2, PeakBandwidthsMatchPaperSpecs) {
  EXPECT_NEAR(xeon::SystemConfig::sandy_bridge().peak_bytes_per_sec(),
              51.2e9, 0.1e9);  // paper: 51.2 GB/s
  // Haswell: 16 channels of DDR4-1333.
  EXPECT_NEAR(xeon::SystemConfig::haswell().peak_bytes_per_sec(),
              16 * 1333e6 * 8, 1e9);
}

TEST(XeonConfigValidation, NamedAndAblationConfigsValidate) {
  xeon::SystemConfig::sandy_bridge().validate();
  xeon::SystemConfig::haswell().validate();
  // abl_sparse_opt's shrunken LLCs: 128 KiB (quick) and 256 KiB, 16-way.
  for (std::size_t kib : {128u, 256u}) {
    auto c = xeon::SystemConfig::sandy_bridge();
    c.llc_bytes = kib << 10;
    c.llc_ways = 16;
    c.validate();
    xeon::Machine m(c);
    EXPECT_EQ(m.cfg().llc_bytes, kib << 10);
  }
}

TEST(XeonConfigValidationDeathTest, RejectsLineSizes) {
  auto c = xeon::SystemConfig::sandy_bridge();
  c.line_bytes = 48;  // line_addr's mask would silently give wrong lines
  EXPECT_DEATH(c.validate(), "line_bytes must be a power of two");
  c.line_bytes = 4;
  EXPECT_DEATH(c.validate(), "line_bytes must be a power of two");
  c.line_bytes = 0;
  EXPECT_DEATH(c.validate(), "line_bytes must be a power of two");
}

TEST(XeonConfigValidationDeathTest, RejectsWaysOutsideRankRange) {
  auto c = xeon::SystemConfig::sandy_bridge();
  c.llc_ways = 0;
  EXPECT_DEATH(c.validate(), "llc_ways");
  c.llc_ways = 256;  // LRU ranks are u8
  EXPECT_DEATH(c.validate(), "llc_ways");
  c.llc_ways = 255;
  c.validate();
}

TEST(XeonConfigValidationDeathTest, RejectsLlcSmallerThanOneSet) {
  auto c = xeon::SystemConfig::sandy_bridge();
  c.llc_bytes = static_cast<std::size_t>(c.llc_ways * c.line_bytes) - 1;
  EXPECT_DEATH(c.validate(), "llc_bytes");
  c.llc_bytes += 1;
  c.validate();
}

TEST(XeonConfigValidationDeathTest, RejectsCoresNotSplittingAcrossSockets) {
  auto c = xeon::SystemConfig::haswell();
  c.cores = 55;  // 4 sockets
  EXPECT_DEATH(c.validate(), "sockets");
  c.cores = 56;
  c.sockets = 0;
  EXPECT_DEATH(c.validate(), "sockets");
}

TEST(XeonConfigValidationDeathTest, RejectsMissingChannelsOrFillBuffers) {
  auto c = xeon::SystemConfig::sandy_bridge();
  c.channels = 0;
  EXPECT_DEATH(c.validate(), "channels");
  c = xeon::SystemConfig::sandy_bridge();
  c.lfb_per_core = 0;
  EXPECT_DEATH(c.validate(), "lfb_per_core");
}

TEST(XeonConfigValidationDeathTest, MachineValidatesItsConfig) {
  auto c = xeon::SystemConfig::sandy_bridge();
  c.line_bytes = 96;
  EXPECT_DEATH(xeon::Machine{c}, "line_bytes must be a power of two");
}

TEST(XeonConfigValidationDeathTest, AllocateStaysWithinTagRange) {
  // sandy_bridge: 64-B lines and 2^14 sets leave 2^52 bytes of tag range.
  xeon::Machine m(xeon::SystemConfig::sandy_bridge());
  EXPECT_EQ(m.allocate(std::uint64_t{1} << 52), 0u);  // ends exactly there
  EXPECT_DEATH(m.allocate(1), "tag range");
  EXPECT_DEATH(m.allocate(~std::uint64_t{0}), "tag range");
}

}  // namespace
}  // namespace emusim
