// Figure 10: hardware-vs-simulator validation.
//
// The paper configures the vendor's architectural simulator to match the
// Chick and compares: STREAM agrees for 1 and 8 nodelets; pointer chasing
// does NOT — the simulator overestimates because the real migration engine
// sustains only ~9 M migrations/s against ~16 M simulated.  The ping-pong
// microbenchmark isolates exactly that, and single-migration latency is
// ~1-2 us.  Here `chick_hw` plays the hardware and `chick_as_simulated`
// (identical but for the idealized migration engine) plays the simulator —
// reproducing the validation gap by construction, which is precisely the
// paper's diagnosis of where the discrepancy lives.
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/pingpong.hpp"
#include "kernels/stream_emu.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void fig10_validation(bench::Harness& h, bench::SweepPool& pool) {
  const auto hw = emu::SystemConfig::chick_hw();
  const auto sim = emu::SystemConfig::chick_as_simulated();
  bench::record_config(h, hw, "hw.");
  bench::record_config(h, sim, "sim.");
  h.axes("x", "mb_per_sec");

  // --- STREAM, 1 nodelet and 8 nodelets: x = nodelet count ----------------
  const std::string table_a =
      "Fig 10a: STREAM ADD, hardware vs simulator (MB/s) vs nodelets";
  struct StreamCase {
    int nodelets;
    int across;
    int threads;
  };
  for (const auto& c :
       {StreamCase{1, 1, 64}, StreamCase{8, 0, 512}}) {
    pool.submit([&h, &hw, &sim, table_a, c](bench::PointSink& sink) {
      sink.table(table_a);
      kernels::StreamParams p;
      p.n = h.quick() ? (1u << 16) : (1u << 19);
      p.threads = c.threads;
      p.across = c.across;
      p.strategy = kernels::SpawnStrategy::recursive_remote_spawn;
      const auto rh = kernels::run_stream_add(hw, p);
      const auto rs = kernels::run_stream_add(sim, p);
      if (!rh.verified || !rs.verified) sink.fail("STREAM verification failed");
      sink.add("stream_hw", c.nodelets, rh.mb_per_sec,
               {{"sim_ms", to_seconds(rh.elapsed) * 1e3}});
      sink.add("stream_sim", c.nodelets, rs.mb_per_sec,
               {{"sim_ms", to_seconds(rs.elapsed) * 1e3}});
    });
  }

  // --- pointer chase vs block size ----------------------------------------
  const std::string table_b =
      "Fig 10b: Pointer chase (full_block_shuffle), hardware vs simulator "
      "(MB/s) vs block size";
  const std::vector<std::size_t> blocks =
      h.quick() ? std::vector<std::size_t>{1, 8}
                : std::vector<std::size_t>{1, 2, 4, 8, 16, 64, 256};
  for (std::size_t b : blocks) {
    pool.submit([&h, &hw, &sim, table_b, b](bench::PointSink& sink) {
      sink.table(table_b);
      kernels::ChaseEmuParams p;
      p.n = h.quick() ? (1u << 15) : (1u << 17);
      p.block = b;
      p.threads = h.quick() ? 64 : 512;
      const auto rh = kernels::run_chase_emu(hw, p);
      const auto rs = kernels::run_chase_emu(sim, p);
      if (!rh.verified || !rs.verified) sink.fail("chase verification failed");
      sink.add("chase_hw", static_cast<double>(b), rh.mb_per_sec,
               {{"sim_ms", to_seconds(rh.elapsed) * 1e3}});
      sink.add("chase_sim", static_cast<double>(b), rs.mb_per_sec,
               {{"sim_ms", to_seconds(rs.elapsed) * 1e3}});
    });
  }

  // --- ping-pong migration throughput and latency --------------------------
  // Series carry migrations/s at x = thread count; the single-thread case
  // also records the mean per-migration latency as an extra metric.
  const std::string table_c =
      "Fig 10c: Ping-pong thread migration, hardware vs simulator "
      "(migrations/s)";
  pool.submit([&h, &hw, &sim, table_c](bench::PointSink& sink) {
    sink.table(table_c, 0);
    kernels::PingPongParams pp;
    pp.threads = 64;
    pp.round_trips = h.quick() ? 200 : 2000;
    const auto ph = kernels::run_pingpong(hw, pp);
    const auto ps = kernels::run_pingpong(sim, pp);
    sink.add("pingpong_hw", pp.threads, ph.migrations_per_sec,
             {{"sim_ms", to_seconds(ph.elapsed) * 1e3}});
    sink.add("pingpong_sim", pp.threads, ps.migrations_per_sec,
             {{"sim_ms", to_seconds(ps.elapsed) * 1e3}});
  });
  pool.submit([&h, &hw, &sim, table_c](bench::PointSink& sink) {
    sink.table(table_c, 0);
    kernels::PingPongParams p1;
    p1.threads = 1;
    p1.round_trips = h.quick() ? 200 : 2000;
    const auto lh = kernels::run_pingpong(hw, p1);
    const auto ls = kernels::run_pingpong(sim, p1);
    sink.add("pingpong_hw", p1.threads, lh.migrations_per_sec,
             {{"latency_us", lh.mean_latency_us},
              {"sim_ms", to_seconds(lh.elapsed) * 1e3}});
    sink.add("pingpong_sim", p1.threads, ls.migrations_per_sec,
             {{"latency_us", ls.mean_latency_us},
              {"sim_ms", to_seconds(ls.elapsed) * 1e3}});
  });
  pool.wait(h);
}
