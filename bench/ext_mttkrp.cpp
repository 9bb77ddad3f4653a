// Extension: MTTKRP (the CP-ALS inner kernel; ParTI motivation, paper §I)
// across layouts and rank — the tensor analogue of the paper's SpMV layout
// study.  Expected shape: 2D slice-partitioned layout far ahead of the 1D
// word-striped layout on the Emu (same mechanism as Fig 9a), with the
// Haswell comparison scaling with rank as arithmetic amortizes the stream.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/mttkrp.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void ext_mttkrp(bench::Harness& h, bench::SweepPool& pool) {
  bench::record_config(h, emu::SystemConfig::chick_hw(), "emu.");
  bench::record_config(h, xeon::SystemConfig::haswell(), "xeon.");

  const std::size_t dim = h.quick() ? 64 : 256;
  const std::size_t nnz = h.quick() ? 4000 : 100000;
  const auto x = tensor::make_random_tensor(dim, dim, dim, nnz, 31);
  h.config("dim", static_cast<long long>(dim));
  h.config("nnz", static_cast<long long>(x.nnz()));
  h.axes("rank", "mflops");
  h.table("Extension: mode-0 MTTKRP, " + std::to_string(x.nnz()) +
          " nonzeros, dims " + std::to_string(dim) + "^3");

  for (int rank : h.quick() ? std::vector<int>{8}
                            : std::vector<int>{4, 8, 16}) {
    // The tensor lives on the main thread for the whole sweep; jobs only
    // read it.
    pool.submit([&h, &x, rank](bench::PointSink& sink) {
      kernels::MttkrpEmuParams ep;
      ep.x = &x;
      ep.rank = rank;
      ep.layout = kernels::MttkrpLayout::one_d;
      const auto one =
          kernels::run_mttkrp_emu(emu::SystemConfig::chick_hw(), ep);
      kernels::MttkrpEmuParams ep2 = ep;
      ep2.layout = kernels::MttkrpLayout::two_d;
      const auto two =
          kernels::run_mttkrp_emu(emu::SystemConfig::chick_hw(), ep2);

      kernels::MttkrpXeonParams xp;
      xp.x = &x;
      xp.rank = rank;
      xp.threads = 56;
      const auto hw =
          kernels::run_mttkrp_xeon(xeon::SystemConfig::haswell(), xp);

      if (!one.verified || !two.verified || !hw.verified) {
        sink.fail("MTTKRP verification failed (rank " + std::to_string(rank) +
                  ")");
      }
      if (h.enabled("emu_1d")) {
        sink.add("emu_1d", rank, one.mflops,
                 {{"mb_per_sec", one.mb_per_sec},
                  {"migrations", static_cast<double>(one.migrations)},
                  {"sim_ms", to_seconds(one.elapsed) * 1e3}});
      }
      if (h.enabled("emu_2d")) {
        sink.add("emu_2d", rank, two.mflops,
                 {{"mb_per_sec", two.mb_per_sec},
                  {"migrations", static_cast<double>(two.migrations)},
                  {"sim_ms", to_seconds(two.elapsed) * 1e3}});
      }
      if (h.enabled("haswell")) {
        sink.add("haswell", rank, hw.mflops,
                 {{"mb_per_sec", hw.mb_per_sec},
                  {"sim_ms", to_seconds(hw.elapsed) * 1e3}});
      }
    });
  }
  pool.wait(h);
}
