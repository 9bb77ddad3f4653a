// Ablation: how sensitive are the paper's results to the migration engine?
//
// Sweeps the per-node migration throughput and in-flight latency around the
// measured values (9 M/s, ~1.4 us) and reruns the migration-heavy cases:
// block-1 pointer chasing and 1D-layout SpMV.  Shows where each benchmark
// turns migration-bound — the design-choice discussion of DESIGN.md §4.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/spmv_emu.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void abl_migration_cost(bench::Harness& h, bench::SweepPool& pool) {
  bench::record_config(h, emu::SystemConfig::chick_hw());
  h.axes("migrations_per_sec", "mb_per_sec");
  h.table(
      "Ablation: migration engine throughput/latency vs migration-bound "
      "benchmarks (chick_hw otherwise)");

  const std::vector<double> rates =
      h.quick() ? std::vector<double>{9e6, 16e6}
                : std::vector<double>{4.5e6, 9e6, 16e6, 32e6, 64e6};
  const std::vector<double> lat_us = h.quick()
                                         ? std::vector<double>{1.4}
                                         : std::vector<double>{0.7, 1.4, 2.8};

  for (double rate : rates) {
    for (double lu : lat_us) {
      pool.submit([&h, rate, lu](bench::PointSink& sink) {
        auto cfg = emu::SystemConfig::chick_hw();
        cfg.migrations_per_sec = rate;
        cfg.migration_latency = us(lu);
        // The latency dimension becomes a categorical label so the 2D
        // sweep keeps one point per (rate, latency) cell.
        char lbl[48];
        std::snprintf(lbl, sizeof lbl, "%gM/%gus", rate / 1e6, lu);

        kernels::ChaseEmuParams cp;
        cp.n = h.quick() ? (1u << 14) : (1u << 16);
        cp.block = 1;
        cp.threads = h.quick() ? 64 : 512;
        const auto cr = kernels::run_chase_emu(cfg, cp);

        kernels::SpmvEmuParams sp;
        sp.laplacian_n = h.quick() ? 50 : 100;
        sp.layout = kernels::SpmvLayout::one_d;
        const auto sr = kernels::run_spmv_emu(cfg, sp);

        if (!cr.verified || !sr.verified) sink.fail("verification failed");
        if (h.enabled("chase_block1")) {
          sink.add_labeled("chase_block1", lbl, rate, cr.mb_per_sec,
                           {{"migrations_per_sec", rate},
                            {"latency_us", lu},
                            {"sim_ms", to_seconds(cr.elapsed) * 1e3}});
        }
        if (h.enabled("spmv_1d")) {
          sink.add_labeled("spmv_1d", lbl, rate, sr.mb_per_sec,
                           {{"migrations_per_sec", rate},
                            {"latency_us", lu},
                            {"sim_ms", to_seconds(sr.elapsed) * 1e3}});
        }
      });
    }
  }
  pool.wait(h);
}
