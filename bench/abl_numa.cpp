// Ablation: NUMA socket penalty on the Xeon comparison platform.
//
// The paper runs SpMV with numactl --interleave=0-3, so most accesses cross
// sockets.  This sweep varies the remote-socket hop latency and reruns the
// latency-sensitive benchmarks — quantifying how much of the Xeon's chase
// deficit is NUMA rather than DRAM-intrinsic (answer: some, but the
// line/row effects dominate).
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_xeon.hpp"
#include "kernels/spmv_xeon.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void abl_numa(bench::Harness& h, bench::SweepPool& pool) {
  bench::record_config(h, xeon::SystemConfig::sandy_bridge(), "snb.");
  bench::record_config(h, xeon::SystemConfig::haswell(), "hsw.");
  h.axes("hop_ns", "mb_per_sec");
  h.table(
      "Ablation: remote-socket hop latency (interleaved memory) vs "
      "latency-bound benchmarks — MB/s");

  for (double hop_ns : h.quick() ? std::vector<double>{50}
                                 : std::vector<double>{0, 25, 50, 100, 200}) {
    pool.submit([&h, hop_ns](bench::PointSink& sink) {
      auto snb = xeon::SystemConfig::sandy_bridge();
      snb.remote_socket_latency = ns(hop_ns);
      kernels::ChaseXeonParams cp;
      cp.n = h.quick() ? (1u << 16) : (std::size_t{1} << 21);
      cp.block = 64;
      cp.threads = 32;
      const auto cr = kernels::run_chase_xeon(snb, cp);

      auto hsw = xeon::SystemConfig::haswell();
      hsw.remote_socket_latency = ns(hop_ns);
      kernels::SpmvXeonParams sp;
      sp.laplacian_n = h.quick() ? 50 : 200;
      sp.impl = kernels::SpmvXeonImpl::mkl;
      const auto sr = kernels::run_spmv_xeon(hsw, sp);

      if (!cr.verified || !sr.verified) sink.fail("verification failed");
      if (h.enabled("chase_block64")) {
        sink.add("chase_block64", hop_ns, cr.mb_per_sec,
                 {{"sim_ms", to_seconds(cr.elapsed) * 1e3}});
      }
      if (h.enabled("spmv_mkl")) {
        sink.add("spmv_mkl", hop_ns, sr.mb_per_sec,
                 {{"sim_ms", to_seconds(sr.elapsed) * 1e3}});
      }
    });
  }
  pool.wait(h);
}
