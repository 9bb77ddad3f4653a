// Figure 4: STREAM ADD bandwidth on a single nodelet of the Emu Chick as a
// function of thread count, for serial_spawn vs recursive_spawn.
//
// Paper shape: bandwidth scales up through ~32 threads and then plateaus
// (~150 MB/s, one eighth of the node's 1.2 GB/s); the two spawn styles are
// nearly indistinguishable, showing thread creation is cheap.
#include <vector>

#include "bench_util.hpp"
#include "kernels/stream_emu.hpp"
#include "sweep_pool.hpp"

using namespace emusim;
using kernels::SpawnStrategy;
using kernels::StreamParams;

void fig04_stream_single_nodelet(bench::Harness& h, bench::SweepPool& pool) {
  const auto cfg = emu::SystemConfig::chick_hw();
  const std::size_t n = h.quick() ? (1u << 16) : (1u << 19);
  bench::record_config(h, cfg);
  h.config("n", static_cast<long long>(n));
  h.axes("threads", "mb_per_sec");
  h.table("Fig 4: STREAM ADD, 1 Emu nodelet (chick_hw), MB/s vs threads");

  const SpawnStrategy strategies[2] = {SpawnStrategy::serial_spawn,
                                       SpawnStrategy::recursive_spawn};
  for (int t : {1, 2, 4, 8, 16, 24, 32, 48, 64}) {
    for (auto s : strategies) {
      if (!h.enabled(kernels::to_string(s))) continue;
      pool.submit([&cfg, n, t, s](bench::PointSink& sink) {
        StreamParams p;
        p.n = n;
        p.threads = t;
        p.strategy = s;
        p.across = 1;  // single nodelet
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
