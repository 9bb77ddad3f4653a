// Figure 9: effective CSR SpMV bandwidth on synthetic 5-point Laplacian
// inputs (matrix is n^2 x n^2 with 5 diagonals).
//   9a — Emu chick_hw, 512 threadlet slots, grain 16: local vs 1D vs 2D
//        layouts.  Paper shape: local ~50 MB/s (single-nodelet parallelism),
//        1D ~100 MB/s (migration per nonzero), 2D scaling to ~250 MB/s.
//   9b — Haswell Xeon, 56 threads: MKL-like and cilk_for scale with n into
//        the GB/s range; cilk_spawn (grain 16384) depends on having enough
//        nonzeros to fill its coarse tasks.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/spmv_emu.hpp"
#include "kernels/spmv_xeon.hpp"
#include "sweep_pool.hpp"

using namespace emusim;
using kernels::SpmvEmuParams;
using kernels::SpmvLayout;
using kernels::SpmvXeonImpl;
using kernels::SpmvXeonParams;

void fig09_spmv(bench::Harness& h, bench::SweepPool& pool) {
  const auto emu_cfg = emu::SystemConfig::chick_hw();
  const auto cpu_cfg = xeon::SystemConfig::haswell();
  bench::record_config(h, emu_cfg, "emu.");
  bench::record_config(h, cpu_cfg, "xeon.");
  h.axes("laplacian_n", "mb_per_sec");

  const std::vector<std::size_t> sizes =
      h.quick() ? std::vector<std::size_t>{25, 100}
                : std::vector<std::size_t>{25, 50, 100, 150, 200, 400, 800};

  const std::string table_a =
      "Fig 9a: SpMV effective bandwidth, Emu chick_hw (grain 16) — MB/s vs "
      "Laplacian n";
  const SpmvLayout layouts[3] = {SpmvLayout::local, SpmvLayout::one_d,
                                 SpmvLayout::two_d};
  for (std::size_t n : sizes) {
    for (auto layout : layouts) {
      if (!h.enabled(to_string(layout))) continue;
      pool.submit([&emu_cfg, table_a, n, layout](bench::PointSink& sink) {
        sink.table(table_a);
        SpmvEmuParams p;
        p.laplacian_n = n;
        p.layout = layout;
        p.grain = 16;
        const auto r = kernels::run_spmv_emu(emu_cfg, p);
        if (!r.verified) {
          sink.fail(std::string("emu SpMV verification failed (") +
                    to_string(layout) + " n=" + std::to_string(n) + ")");
        }
        sink.add(to_string(layout), static_cast<double>(n), r.mb_per_sec,
                 {{"nnz", static_cast<double>(5 * n * n)},
                  {"sim_ms", to_seconds(r.elapsed) * 1e3},
                  {"migrations", static_cast<double>(r.migrations)}});
      });
    }
  }

  const std::string table_b =
      "Fig 9b: SpMV effective bandwidth, Haswell Xeon (56 threads) — MB/s "
      "vs Laplacian n";
  const SpmvXeonImpl impls[3] = {SpmvXeonImpl::mkl, SpmvXeonImpl::cilk_for,
                                 SpmvXeonImpl::cilk_spawn};
  for (std::size_t n : sizes) {
    for (auto impl : impls) {
      if (!h.enabled(to_string(impl))) continue;
      pool.submit([&cpu_cfg, table_b, n, impl](bench::PointSink& sink) {
        sink.table(table_b);
        SpmvXeonParams p;
        p.laplacian_n = n;
        p.impl = impl;
        p.threads = 56;
        p.grain = 16384;
        const auto r = kernels::run_spmv_xeon(cpu_cfg, p);
        if (!r.verified) {
          sink.fail(std::string("xeon SpMV verification failed (") +
                    to_string(impl) + " n=" + std::to_string(n) + ")");
        }
        sink.add(to_string(impl), static_cast<double>(n), r.mb_per_sec,
                 {{"nnz", static_cast<double>(5 * n * n)},
                  {"sim_ms", to_seconds(r.elapsed) * 1e3}});
      });
    }
  }
  pool.wait(h);
}
