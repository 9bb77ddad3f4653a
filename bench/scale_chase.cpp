// Scaling sweep: pointer chasing at 64 / 256 / 1024 nodelets on the
// chick_fullspeed_Nx family, with data sizes up to 2^30 elements (ROADMAP
// item 3, extending the paper's Fig 11 projection).
//
// The chase_scale kernel does fixed per-chain work with a procedurally
// generated block walk, so a point's simulated event count — and its wall
// cost — is independent of n; only the address space grows.  Each point
// therefore doubles as the memory-footprint gate: the lazily chunked
// striped views must keep peak host bytes at chunk bookkeeping only
// (O(nodelets), never O(n)), asserted by tools/shapes/scale_chase.json.
//
// Per-point extras:
//   engine_events   — Σ DES events processed (deterministic engine-work
//                     measure; identical across --jobs)
//   mem_peak_bytes  — peak host bytes materialized by the machine's views
//   sim_ms, migrations_per_element — as the other chase benches
//
// Series: nl<N>_seq / nl<N>_shuf per nodelet count — sequential vs
// LCG-shuffled block order.  Both change nodelet nearly every block, so the
// paper's locality-insensitivity claim (7) predicts matching bandwidth; the
// shape spec checks that ratio at 64 and 256 nodelets.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "emu/machine.hpp"
#include "kernels/chase_scale.hpp"
#include "sweep_pool.hpp"

using namespace emusim;
using kernels::ChaseScaleParams;

void scale_chase(bench::Harness& h, bench::SweepPool& pool) {
  // Quick keeps every series the shape spec references (64 and 256
  // nodelets, both orders) at small n; full adds 1024 nodelets and the
  // >= 2^30-element points.  x = log2(n); quick xs are a subset of full xs
  // so the spec's per-point claims hold for both.
  const std::vector<int> nodelet_counts =
      h.quick() ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1024};
  const std::vector<int> log2_ns = h.quick() ? std::vector<int>{20, 24}
                                             : std::vector<int>{20, 24, 30};
  const std::uint64_t elems_per_thread = h.quick() ? 256 : 4096;
  const std::size_t block = 64;

  for (int nlets : nodelet_counts) {
    bench::record_config(
        h, emu::SystemConfig::chick_fullspeed_nx(nlets),
        "nl" + std::to_string(nlets) + ".");
  }
  h.config("block", static_cast<long long>(block));
  h.config("elems_per_thread", static_cast<long long>(elems_per_thread));
  h.axes("log2_n", "mb_per_sec");
  h.table("Scaling: procedural pointer chase, chick_fullspeed_Nx — MB/s");

  for (int nlets : nodelet_counts) {
    for (const bool shuffled : {false, true}) {
      const std::string series = "nl" + std::to_string(nlets) +
                                 (shuffled ? "_shuf" : "_seq");
      if (!h.enabled(series)) continue;
      for (int log2n : log2_ns) {
        pool.submit([series, nlets, shuffled, log2n, elems_per_thread,
                     block](bench::PointSink& sink) {
          const auto cfg = emu::SystemConfig::chick_fullspeed_nx(nlets);
          ChaseScaleParams p;
          p.n = std::size_t{1} << log2n;
          p.block = block;
          p.threads = 4 * nlets;  // threads scale with the machine
          p.elems_per_thread = elems_per_thread;
          p.shuffled = shuffled;
          emu::take_run_telemetry();  // drop any prior machines' counts
          const auto r = kernels::run_chase_scale(cfg, p);
          const emu::RunTelemetry tel = emu::take_run_telemetry();
          if (!r.verified) sink.fail(series + ": checksum mismatch");
          sink.add(series, static_cast<double>(log2n), r.mb_per_sec,
                   {{"sim_ms", to_seconds(r.elapsed) * 1e3},
                    {"migrations_per_element", r.migrations_per_element},
                    {"engine_events", static_cast<double>(tel.engine_events)},
                    {"mem_peak_bytes",
                     static_cast<double>(tel.peak_host_bytes)}});
        });
      }
    }
  }
  pool.wait(h);
}
