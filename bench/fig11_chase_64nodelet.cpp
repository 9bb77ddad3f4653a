// Figure 11: simulated pointer chasing on a full-speed 64-nodelet Emu
// system (8 node cards, 4 Gossamer cores per nodelet at 300 MHz,
// NCDRAM-2133).
//
// Paper shape: even at this scale the system stays insensitive to the
// granularity of spatial locality (flat across block sizes, with the
// block-1 migration-bound dip), and bandwidth keeps scaling up to
// thousands of threads.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_emu.hpp"
#include "sweep_pool.hpp"

using namespace emusim;
using kernels::ChaseEmuParams;

void fig11_chase_64nodelet(bench::Harness& h, bench::SweepPool& pool) {
  const auto cfg = emu::SystemConfig::fullspeed_multinode(8);
  // Quick mode keeps both of the figure's claims checkable: two thread
  // counts for the scaling claim, blocks 16 and 64 for the flatness claim
  // (n/block must stay >= threads).
  const std::size_t n = h.quick() ? (1u << 17) : (1u << 19);
  bench::record_config(h, cfg);
  h.config("n", static_cast<long long>(n));
  h.axes("block", "mb_per_sec");
  h.table(
      "Fig 11: Pointer chasing, full-speed Emu, 64 nodelets "
      "(chick_fullspeed x8 nodes), full_block_shuffle — MB/s");

  const std::vector<int> thread_counts =
      h.quick() ? std::vector<int>{512, 2048}
                : std::vector<int>{512, 1024, 2048, 4096};
  const std::vector<std::size_t> blocks =
      h.quick() ? std::vector<std::size_t>{1, 16, 64}
                : std::vector<std::size_t>{1, 4, 16, 64, 128, 256, 512};

  for (std::size_t b : blocks) {
    for (int t : thread_counts) {
      const std::string series = "t" + std::to_string(t);
      if (!h.enabled(series)) continue;
      if (n / b < static_cast<std::size_t>(t)) continue;
      pool.submit([&cfg, series, n, b, t](bench::PointSink& sink) {
        ChaseEmuParams p;
        p.n = n;
        p.block = b;
        p.threads = t;
        const auto r = kernels::run_chase_emu(cfg, p);
        if (!r.verified) sink.fail("chase verification failed");
        sink.add(series, static_cast<double>(b), r.mb_per_sec,
                 {{"sim_ms", to_seconds(r.elapsed) * 1e3},
                  {"migrations_per_element", r.migrations_per_element}});
      });
    }
  }
  pool.wait(h);
}
