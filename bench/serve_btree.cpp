// Online request serving: a B+-tree forest striped across the machine, fed
// by generated query streams (uniform / Zipf-skewed / bursty arrivals) in
// fixed-size batches.  Unlike the figure benches, the headline metrics are
// tail latencies (p50/p95/p99 per op phase) and sustained throughput on the
// simulated clock — the serving-side restatement of the paper's locality
// claims:
//
//   * On the Xeon baseline, Zipf skew funnels inserts through one family's
//     writer latch, so p99 rises while the cache-warmed median holds — the
//     zipf/uniform p99 ordering, overall and on inserts alone, is a CI
//     shape gate.
//   * On the Emu, requests migrate to the owning nodelet and mutate without
//     locks; skew queues one nodelet's cores, lifting p50 and p99 together,
//     so the p99/p50 ratio stays bounded — also a gate.
//   * Closed-loop batch scaling (table B) is monotone non-decreasing up to
//     a knee where the nodelets saturate — gated with monotone_nondec.
//
// Point extras carry the overall lat_p50_us/lat_p95_us/lat_p99_us/
// lat_max_us summaries and one lat_<phase>_p99_us per op phase (lookup,
// insert, scan), which tools/shapecheck and tools/benchdiff read through
// the normal metric path.
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "serve/service.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

namespace {

double to_us(Time ps) { return static_cast<double>(ps) * 1e-6; }

std::vector<std::pair<std::string, double>> point_extras(
    const serve::ServeResult& r) {
  const auto& lat = r.lat.overall();
  double hot = 0.0;
  if (r.ops > 0 && !r.range_ops.empty()) {
    hot = static_cast<double>(r.range_ops[0]) / static_cast<double>(r.ops);
  }
  std::vector<std::pair<std::string, double>> extra = {
      {"sim_ms", to_seconds(r.elapsed) * 1e3},
      {"lat_p50_us", to_us(lat.p50())},
      {"lat_p95_us", to_us(lat.p95())},
      {"lat_p99_us", to_us(lat.p99())},
      {"lat_max_us", to_us(lat.max())},
      {"hot_range_share", hot}};
  bench::add_phase_p99s(r.lat, &extra);
  return extra;
}

}  // namespace

void serve_btree(bench::Harness& h, bench::SweepPool& pool) {
  const auto emu_cfg = emu::SystemConfig::chick_hw();
  const auto emu2_cfg = emu::SystemConfig::fullspeed_multinode(2);
  const auto xeon_cfg = xeon::SystemConfig::sandy_bridge();

  serve::ServeParams base;
  base.stream.requests = h.quick() ? (1u << 11) : (1u << 13);
  base.stream.key_space = h.quick() ? (1u << 13) : (1u << 14);

  bench::record_config(h, emu_cfg, "emu.");
  bench::record_config(h, emu2_cfg, "emu2.");
  bench::record_config(h, xeon_cfg, "xeon.");
  h.config("requests", static_cast<long long>(base.stream.requests));
  h.config("batch", static_cast<long long>(base.stream.batch));
  h.config("key_space", static_cast<long long>(base.stream.key_space));
  h.config("zipf_theta", "0.99");
  h.config("mean_interarrival_ns",
           static_cast<long long>(base.stream.mean_interarrival / 1000));
  h.config("fanout", static_cast<long long>(base.fanout));
  h.config("threads", static_cast<long long>(base.threads));
  h.config("seed", static_cast<long long>(base.stream.seed));
  h.axes("batch", "mops_per_sec");

  const std::string table_a =
      "Serving A: arrival processes — throughput and tail latency "
      "(open loop)";
  const serve::Arrival processes[3] = {serve::Arrival::uniform,
                                       serve::Arrival::zipf,
                                       serve::Arrival::bursty};

  struct Backend {
    std::string series;
    bool is_emu;
    const emu::SystemConfig* emu;
    const xeon::SystemConfig* xeon;
  };
  const Backend backends[3] = {{"emu", true, &emu_cfg, nullptr},
                               {"xeon", false, nullptr, &xeon_cfg},
                               {"emu2", true, &emu2_cfg, nullptr}};

  auto run_point = [](bench::PointSink& sink, const Backend& be,
                      const serve::ServeParams& p) {
    const auto r = be.is_emu ? serve::serve_emu(*be.emu, p)
                             : serve::serve_xeon(*be.xeon, p);
    if (!r.verified) {
      sink.fail(be.series + " serve verification failed: " + r.error);
    }
    return r;
  };

  for (const Backend& be : backends) {
    if (!h.enabled(be.series)) continue;
    // The 2-node config exists to exercise the windowed shard schedule;
    // one skewed point suffices.
    const bool all_processes = be.series != "emu2";
    for (int i = 0; i < 3; ++i) {
      const serve::Arrival a = processes[i];
      if (!all_processes && a != serve::Arrival::zipf) continue;
      pool.submit([&run_point, &be, table_a, a, i,
                   base](bench::PointSink& sink) {
        serve::ServeParams p = base;
        p.stream.process = a;
        sink.table(table_a);
        const auto r = run_point(sink, be, p);
        sink.add_labeled(be.series, to_string(a), static_cast<double>(i),
                         r.mops_per_sec, point_extras(r));
      });
    }
  }

  const std::string table_b =
      "Serving B: closed-loop batch-size sweep — sustained throughput";
  const std::vector<std::uint32_t> batches =
      h.quick() ? std::vector<std::uint32_t>{8, 32, 128}
                : std::vector<std::uint32_t>{8, 16, 32, 64, 128, 256};
  const Backend sweep_backends[2] = {{"emu_batch", true, &emu_cfg, nullptr},
                                     {"xeon_batch", false, nullptr,
                                      &xeon_cfg}};
  for (const Backend& be : sweep_backends) {
    if (!h.enabled(be.series)) continue;
    for (std::uint32_t b : batches) {
      pool.submit([&run_point, &be, table_b, b,
                   base](bench::PointSink& sink) {
        serve::ServeParams p = base;
        p.stream.process = serve::Arrival::zipf;
        p.stream.batch = b;
        p.stream.mean_interarrival = 0;  // closed loop: offered load = inf
        sink.table(table_b);
        const auto r = run_point(sink, be, p);
        sink.add(be.series, static_cast<double>(b), r.mops_per_sec,
                 point_extras(r));
      });
    }
  }

  pool.wait(h);
}
