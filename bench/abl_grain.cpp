// Ablation: spawn grain size on both platforms (paper §IV-C) — "a large
// grain size of 16,384 for cilk_spawn works best for CPU-based SpMV while a
// much smaller grain size of 16 elements per spawn is most effective for
// the Emu implementation."
#include <vector>

#include "bench_util.hpp"
#include "kernels/spmv_emu.hpp"
#include "kernels/spmv_xeon.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void abl_grain(bench::Harness& h, bench::SweepPool& pool) {
  const std::size_t n = h.quick() ? 100 : 800;  // 5*n^2 nonzeros
  bench::record_config(h, emu::SystemConfig::chick_hw(), "emu.");
  bench::record_config(h, xeon::SystemConfig::haswell(), "xeon.");
  h.config("laplacian_n", static_cast<long long>(n));
  h.axes("grain", "mb_per_sec");
  h.table("Ablation: SpMV spawn grain (nonzeros per task), Laplacian n=" +
          std::to_string(n));

  const std::vector<std::size_t> grains =
      h.quick() ? std::vector<std::size_t>{16, 1024}
                : std::vector<std::size_t>{4, 16, 64, 256, 1024, 4096, 16384};
  for (std::size_t g : grains) {
    pool.submit([&h, n, g](bench::PointSink& sink) {
      kernels::SpmvEmuParams ep;
      ep.laplacian_n = n;
      ep.layout = kernels::SpmvLayout::two_d;
      ep.grain = g;
      const auto er = kernels::run_spmv_emu(emu::SystemConfig::chick_hw(), ep);

      kernels::SpmvXeonParams xp;
      xp.laplacian_n = n;
      xp.impl = kernels::SpmvXeonImpl::cilk_spawn;
      xp.grain = g;
      const auto xr = kernels::run_spmv_xeon(xeon::SystemConfig::haswell(), xp);

      if (!er.verified || !xr.verified) sink.fail("verification failed");
      if (h.enabled("emu_2d")) {
        sink.add("emu_2d", static_cast<double>(g), er.mb_per_sec,
                 {{"sim_ms", to_seconds(er.elapsed) * 1e3}});
      }
      if (h.enabled("xeon_cilk_spawn")) {
        sink.add("xeon_cilk_spawn", static_cast<double>(g), xr.mb_per_sec,
                 {{"sim_ms", to_seconds(xr.elapsed) * 1e3}});
      }
    });
  }
  pool.wait(h);
}
