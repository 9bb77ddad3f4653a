// Ablation: thread context size vs migration performance.
//
// The Emu keeps contexts under 200 bytes (16 GP registers + PC + SP +
// status) precisely so migrations stay cheap.  This sweep grows the context
// and watches inter-node ping-pong and block-1 chasing on the 8-node
// full-speed system, where contexts actually cross the RapidIO fabric.
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/pingpong.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void abl_context_size(bench::Harness& h, bench::SweepPool& pool) {
  bench::record_config(h, emu::SystemConfig::fullspeed_multinode(8));
  h.axes("context_bytes", "rate");
  h.table(
      "Ablation: thread context size on the 8-node full-speed system "
      "(ping-pong M mig/s, chase block=1 MB/s)", 2);

  const std::vector<std::size_t> sizes =
      h.quick() ? std::vector<std::size_t>{200, 3200}
                : std::vector<std::size_t>{100, 200, 400, 800, 1600, 3200};
  for (std::size_t bytes : sizes) {
    pool.submit([&h, bytes](bench::PointSink& sink) {
      auto cfg = emu::SystemConfig::fullspeed_multinode(8);
      cfg.thread_context_bytes = bytes;

      kernels::PingPongParams pp;
      pp.threads = 64;
      pp.round_trips = h.quick() ? 100 : 500;
      pp.nodelet_a = 0;
      pp.nodelet_b = cfg.nodelets_per_node;  // first nodelet of node 1
      const auto pr = kernels::run_pingpong(cfg, pp);

      kernels::ChaseEmuParams cp;
      cp.n = h.quick() ? (1u << 14) : (1u << 16);
      cp.block = 1;
      cp.threads = h.quick() ? 256 : 1024;
      const auto cr = kernels::run_chase_emu(cfg, cp);
      if (!cr.verified) sink.fail("chase verification failed");

      if (h.enabled("pingpong_internode_mps")) {
        sink.add("pingpong_internode_mps", static_cast<double>(bytes),
                 pr.migrations_per_sec / 1e6,
                 {{"sim_ms", to_seconds(pr.elapsed) * 1e3}});
      }
      if (h.enabled("chase_block1_mbps")) {
        sink.add("chase_block1_mbps", static_cast<double>(bytes),
                 cr.mb_per_sec, {{"sim_ms", to_seconds(cr.elapsed) * 1e3}});
      }
    });
  }
  pool.wait(h);
}
