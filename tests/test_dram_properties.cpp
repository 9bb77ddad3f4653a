// Parameterized DRAM model properties: for every configuration and access
// pattern, completion times must be causal, bandwidth must respect the bus
// peak, counters must balance, and refresh must cost what it costs.
#include <gtest/gtest.h>

#include <vector>

#include "mem/dram.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace emusim::mem {
namespace {

using sim::Engine;
using sim::Task;

enum class Pattern { sequential, random, strided };

struct DramCase {
  const char* config;
  Pattern pattern;
  std::uint32_t bytes;
};

// Prints as "<config>-<pattern>-<bytes>B" so the ctest name of a case is
// stable across builds (the default byte dump includes the config pointer).
void PrintTo(const DramCase& c, std::ostream* os) {
  static const char* const kPattern[] = {"sequential", "random", "strided"};
  *os << c.config << '-' << kPattern[static_cast<int>(c.pattern)] << '-'
      << c.bytes << 'B';
}

DramTiming timing_by_name(const char* name) {
  const std::string s = name;
  if (s == "ncdram_chick") return DramTiming::ncdram_chick();
  if (s == "ncdram_fullspeed") return DramTiming::ncdram_fullspeed();
  if (s == "ddr4_1333") return DramTiming::ddr4_1333();
  return DramTiming::ddr3_1600();
}

class DramProps : public ::testing::TestWithParam<DramCase> {};

Task one_read(Engine& eng, DramChannel& ch, std::uint64_t addr,
              std::uint32_t bytes, std::vector<Time>* done) {
  co_await ch.read(addr, bytes);
  done->push_back(eng.now());
}

TEST_P(DramProps, CausalAndBounded) {
  const auto c = GetParam();
  const DramTiming timing = timing_by_name(c.config);
  Engine eng;
  DramChannel ch(eng, timing);
  sim::Rng rng(3);

  constexpr int kN = 1500;
  std::vector<Time> done;
  std::vector<Task> ts;
  std::uint64_t addr = 0;
  for (int i = 0; i < kN; ++i) {
    switch (c.pattern) {
      case Pattern::sequential: addr = static_cast<std::uint64_t>(i) * c.bytes; break;
      case Pattern::random: addr = (rng.below(1u << 28)) & ~7ULL; break;
      case Pattern::strided: addr = static_cast<std::uint64_t>(i) * 4096; break;
    }
    ts.push_back(one_read(eng, ch, addr, c.bytes, &done));
  }
  for (auto& t : ts) t.start();
  const Time elapsed = eng.run();

  // All requests completed, in causal order (all issued at t=0, FIFO).
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kN));
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_LE(done[i - 1], done[i]);
  }
  // Counter balance.
  EXPECT_EQ(ch.stats().reads, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(ch.stats().row_hits + ch.stats().row_misses,
            static_cast<std::uint64_t>(kN));
  EXPECT_EQ(ch.stats().bytes, static_cast<std::uint64_t>(kN) * c.bytes);
  // Useful bandwidth can never beat the bus peak; bus occupancy can never
  // exceed wall-clock.
  const double bw = static_cast<double>(kN) * c.bytes / to_seconds(elapsed);
  EXPECT_LE(bw, timing.bytes_per_sec() * 1.001);
  EXPECT_LE(ch.bus_busy_time(), elapsed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DramProps,
    ::testing::Values(
        DramCase{"ncdram_chick", Pattern::sequential, 8},
        DramCase{"ncdram_chick", Pattern::random, 8},
        DramCase{"ncdram_chick", Pattern::random, 16},
        DramCase{"ncdram_fullspeed", Pattern::sequential, 8},
        DramCase{"ddr3_1600", Pattern::sequential, 64},
        DramCase{"ddr3_1600", Pattern::random, 64},
        DramCase{"ddr3_1600", Pattern::strided, 64},
        DramCase{"ddr4_1333", Pattern::random, 64},
        DramCase{"ddr4_1333", Pattern::sequential, 64}));

TEST(DramRefresh, StealsAboutTrfcOverTrefi) {
  // Long sequential stream: throughput with refresh enabled is lower by
  // roughly tRFC/tREFI (~4.5%).
  auto run = [](bool refresh) {
    DramTiming t = DramTiming::ddr3_1600();
    if (!refresh) t.t_refi = 0;
    Engine eng;
    DramChannel ch(eng, t);
    std::vector<Time> done;
    std::vector<Task> ts;
    constexpr int kLines = 20000;  // ~100 us of bus time: many windows
    for (int i = 0; i < kLines; ++i) {
      ts.push_back(one_read(eng, ch, static_cast<std::uint64_t>(i) * 64, 64,
                            &done));
    }
    for (auto& t2 : ts) t2.start();
    return eng.run();
  };
  const double with = static_cast<double>(run(true));
  const double without = static_cast<double>(run(false));
  const double overhead = with / without - 1.0;
  EXPECT_GT(overhead, 0.02);
  EXPECT_LT(overhead, 0.08);
}

TEST(DramRefresh, ColdAccessUnaffected) {
  Engine eng;
  DramChannel ch(eng, DramTiming::ddr3_1600());
  // Access at t=0 must not be pushed behind a refresh window.
  const auto t = ch.access(0, 64, false);
  const auto& tm = ch.timing();
  EXPECT_EQ(t, tm.ctrl_latency + tm.t_rp + tm.t_rcd + tm.t_cas +
                   tm.burst_time(64));
}

TEST(DramMinBurst, WideBusMovesAtLeastOneBurst) {
  DramTiming t = DramTiming::ddr3_1600();
  EXPECT_EQ(t.min_burst_bytes(), 64u);
  EXPECT_EQ(t.burst_time(8), t.burst_time(64));
  DramTiming n = DramTiming::ncdram_chick();
  EXPECT_EQ(n.min_burst_bytes(), 8u);
  EXPECT_EQ(n.burst_time(16), 2 * n.burst_time(8));
}

TEST(DramBankHash, SpreadsConsecutiveRows) {
  Engine eng;
  DramChannel ch(eng, DramTiming::ddr3_1600());
  // 64 consecutive rows should occupy most of the 32 banks.
  std::vector<int> used(64, 0);
  std::size_t distinct = 0;
  std::vector<bool> seen(64, false);
  for (std::uint64_t r = 0; r < 64; ++r) {
    const auto b = ch.bank_of(r * 8192);
    if (!seen[b]) {
      seen[b] = true;
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 24u);
  (void)used;
}

}  // namespace
}  // namespace emusim::mem
