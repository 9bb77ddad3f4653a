// Figure 8: pointer-chase bandwidth *utilization* — each platform's chase
// bandwidth normalized to its own measured STREAM peak.
//
// Paper shape: the Emu sustains ~80% of its available bandwidth across a
// wide range of block sizes (worst ~50%, at low thread counts / block 1);
// the Sandy Bridge Xeon stays below ~25% and needs multi-kilobyte blocks to
// get there at all.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/chase_xeon.hpp"
#include "kernels/stream_emu.hpp"
#include "kernels/stream_xeon.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void fig08_utilization(bench::Harness& h, bench::SweepPool& pool) {
  const auto emu_cfg = emu::SystemConfig::chick_hw();
  const auto snb_cfg = xeon::SystemConfig::sandy_bridge();
  bench::record_config(h, emu_cfg, "emu.");
  bench::record_config(h, snb_cfg, "xeon.");
  h.axes("block", "mb_per_sec");

  // --- measured STREAM peaks (the normalization denominators) ------------
  kernels::StreamParams esp;
  esp.n = h.quick() ? (1u << 17) : (1u << 20);
  esp.threads = 512;
  esp.strategy = kernels::SpawnStrategy::recursive_remote_spawn;
  const auto emu_peak = kernels::run_stream_add(emu_cfg, esp);

  kernels::StreamXeonParams xsp;
  xsp.n = h.quick() ? (1u << 18) : (1u << 20);
  xsp.threads = 16;
  const auto snb_peak = kernels::run_stream_xeon(snb_cfg, xsp);

  std::printf("Measured STREAM peaks: Emu %.1f MB/s, Sandy Bridge %.1f MB/s\n",
              emu_peak.mb_per_sec, snb_peak.mb_per_sec);
  // The fingerprint covers the STREAM inputs, never the measured peaks: a
  // model change that moves a peak must be diffed, not skipped as a config
  // mismatch.
  h.config("emu_stream_n", static_cast<long long>(esp.n));
  h.config("emu_stream_threads", static_cast<long long>(esp.threads));
  h.config("emu_stream_strategy", kernels::to_string(esp.strategy));
  h.config("xeon_stream_n", static_cast<long long>(xsp.n));
  h.config("xeon_stream_threads", static_cast<long long>(xsp.threads));

  const std::vector<std::size_t> blocks =
      h.quick() ? std::vector<std::size_t>{1, 64, 1024}
                : std::vector<std::size_t>{1, 4, 16, 64, 256, 1024, 4096};
  // The Xeon list must stay DRAM-resident (see fig07) for the utilization
  // ceiling to mean what the paper means.
  const std::size_t emu_n = h.quick() ? (1u << 15) : (1u << 18);
  const std::size_t xeon_n =
      h.quick() ? (std::size_t{1} << 21) : (std::size_t{1} << 22);
  h.config("emu_n", static_cast<long long>(emu_n));
  h.config("xeon_n", static_cast<long long>(xeon_n));

  h.table(
      "Fig 8: Pointer-chase bandwidth (MB/s; utilization of own STREAM peak "
      "in extras), full_block_shuffle, max threads (Emu 512 / Xeon 32)");
  for (std::size_t b : blocks) {
    // One job per block runs both platforms, like one serial loop body did:
    // counter attribution and failure order stay identical.
    pool.submit([&h, &emu_cfg, &snb_cfg, &emu_peak, &snb_peak, emu_n, xeon_n,
                 b](bench::PointSink& sink) {
      kernels::ChaseEmuParams ep;
      ep.n = emu_n;
      ep.block = b;
      // One chain per block at minimum: clamp threads for the largest
      // blocks.
      ep.threads = static_cast<int>(std::min<std::size_t>(512, emu_n / b));
      const auto er = kernels::run_chase_emu(emu_cfg, ep);

      kernels::ChaseXeonParams xp;
      xp.n = xeon_n;
      xp.block = b;
      xp.threads = 32;
      const auto xr = kernels::run_chase_xeon(snb_cfg, xp);

      if (!er.verified || !xr.verified) sink.fail("chase verification failed");
      const double eu = 100.0 * er.mb_per_sec / emu_peak.mb_per_sec;
      const double xu = 100.0 * xr.mb_per_sec / snb_peak.mb_per_sec;
      if (h.enabled("emu")) {
        sink.add("emu", static_cast<double>(b), er.mb_per_sec,
                 {{"utilization_pct", eu},
                  {"sim_ms", to_seconds(er.elapsed) * 1e3}});
      }
      if (h.enabled("xeon")) {
        sink.add("xeon", static_cast<double>(b), xr.mb_per_sec,
                 {{"utilization_pct", xu},
                  {"sim_ms", to_seconds(xr.elapsed) * 1e3}});
      }
    });
  }
  pool.wait(h);
}
