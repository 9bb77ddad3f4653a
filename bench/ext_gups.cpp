// Extension: GUPS / RandomAccess on both platforms.
//
// The paper positions pointer chasing as GUPS-with-dependent-loads
// (§III-E).  GUPS itself maps onto the Emu's memory-side atomics — the
// updating thread never migrates and never waits — so it isolates the
// fine-grained-traffic advantage without the latency chain.
#include <vector>

#include "bench_util.hpp"
#include "kernels/gups.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void ext_gups(bench::Harness& h, bench::SweepPool& pool) {
  bench::record_config(h, emu::SystemConfig::chick_hw(), "emu.");
  bench::record_config(h, xeon::SystemConfig::sandy_bridge(), "xeon.");
  h.axes("threads", "giga_updates_per_sec");
  h.table("Extension: GUPS (random 8 B updates), Emu chick_hw vs "
          "Sandy Bridge Xeon", 4);

  kernels::GupsParams p;
  p.table_words = h.quick() ? (1u << 16) : (std::size_t{1} << 22);
  p.updates = h.quick() ? (1u << 14) : (1u << 18);
  h.config("table_words", static_cast<long long>(p.table_words));
  h.config("updates", static_cast<long long>(p.updates));

  if (h.enabled("emu")) {
    for (int threads : h.quick() ? std::vector<int>{64}
                                 : std::vector<int>{64, 256, 512}) {
      kernels::GupsParams pe = p;
      pe.threads = threads;
      pool.submit([pe, threads](bench::PointSink& sink) {
        const auto r = kernels::run_gups_emu(emu::SystemConfig::chick_hw(), pe);
        if (!r.verified) sink.fail("emu GUPS verification failed");
        sink.add("emu", threads, r.giga_updates_per_sec,
                 {{"mb_per_sec", r.mb_per_sec},
                  {"migrations", static_cast<double>(r.migrations)},
                  {"sim_ms", to_seconds(r.elapsed) * 1e3}});
      });
    }
  }

  if (h.enabled("xeon")) {
    for (int threads : h.quick() ? std::vector<int>{16}
                                 : std::vector<int>{8, 16, 32}) {
      kernels::GupsParams px = p;
      px.threads = threads;
      pool.submit([px, threads](bench::PointSink& sink) {
        const auto r =
            kernels::run_gups_xeon(xeon::SystemConfig::sandy_bridge(), px);
        if (!r.verified) sink.fail("xeon GUPS verification failed");
        sink.add("xeon", threads, r.giga_updates_per_sec,
                 {{"mb_per_sec", r.mb_per_sec},
                  {"sim_ms", to_seconds(r.elapsed) * 1e3}});
      });
    }
  }
  pool.wait(h);
}
