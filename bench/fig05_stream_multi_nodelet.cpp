// Figure 5: STREAM ADD bandwidth on eight nodelets (one node card) of the
// Emu Chick vs thread count, for all four spawn strategies.
//
// Paper shape: the remote-spawn strategies reach the machine peak
// (~1.2 GB/s); the local-spawn strategies plateau far below it because
// their workers take contiguous global ranges over element-striped arrays
// and therefore migrate on nearly every element.
#include <vector>

#include "bench_util.hpp"
#include "kernels/stream_emu.hpp"
#include "sweep_pool.hpp"

using namespace emusim;
using kernels::SpawnStrategy;
using kernels::StreamParams;

void fig05_stream_multi_nodelet(bench::Harness& h, bench::SweepPool& pool) {
  const auto cfg = emu::SystemConfig::chick_hw();
  const std::size_t n = h.quick() ? (1u << 17) : (1u << 20);
  bench::record_config(h, cfg);
  h.config("n", static_cast<long long>(n));
  h.axes("threads", "mb_per_sec");
  h.table("Fig 5: STREAM ADD, 8 Emu nodelets (chick_hw), MB/s vs threads");

  const SpawnStrategy strategies[4] = {
      SpawnStrategy::serial_spawn, SpawnStrategy::recursive_spawn,
      SpawnStrategy::serial_remote_spawn,
      SpawnStrategy::recursive_remote_spawn};
  const std::vector<int> thread_counts =
      h.quick() ? std::vector<int>{8, 64, 256}
                : std::vector<int>{8, 16, 32, 64, 128, 256, 384, 512};
  for (int t : thread_counts) {
    for (auto s : strategies) {
      if (!h.enabled(kernels::to_string(s))) continue;
      pool.submit([&cfg, n, t, s](bench::PointSink& sink) {
        StreamParams p;
        p.n = n;
        p.threads = t;
        p.strategy = s;
        const auto r = kernels::run_stream_add(cfg, p);
        if (!r.verified) sink.fail("STREAM verification failed");
        sink.add(kernels::to_string(s), t, r.mb_per_sec,
                 {{"sim_ms", to_seconds(r.elapsed) * 1e3},
                  {"migrations", static_cast<double>(r.migrations)}});
      });
    }
  }
  pool.wait(h);
}
