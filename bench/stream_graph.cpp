// Streaming graph updates with concurrent analytics — the irregular-suite
// bench.  Epochs of concurrent edge-insert batches interleave with degree
// probes and full BFS sweeps on both machine models, every epoch checked
// against a from-scratch batch-built oracle inside the drivers:
//
//   * Table A runs the insert+query mix under uniform and RMAT-skewed
//     update streams.  The duplicate share (re-inserted edges committing as
//     no-ops) is a deterministic workload property — gated value_between.
//   * Table B sweeps the insert batch size closed-loop; sustained insert
//     throughput must grow monotonically with batch on both backends
//     (monotone_nondec gates) until dispatch overhead amortizes.
//   * Table C counts triangles on the same graph families (forward
//     merge-intersection on both backends; counts must agree exactly with
//     the host reference — the drivers verify, the bench fails otherwise).
//
// Point extras carry the overall lat_p50_us/lat_p99_us/lat_max_us
// summaries and one lat_<phase>_p99_us per phase (insert, degree, bfs) that
// recorded a sample; table B runs no queries, so its points carry only the
// insert tail.
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "graph/stream_graph.hpp"
#include "kernels/tc.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

namespace {

double to_us(Time ps) { return static_cast<double>(ps) * 1e-6; }

std::vector<std::pair<std::string, double>> point_extras(
    const graph::StreamResult& r) {
  const auto& lat = r.lat.overall();
  const double dup_share =
      r.inserts > 0 ? 1.0 - static_cast<double>(r.new_edges) /
                                static_cast<double>(r.inserts)
                    : 0.0;
  std::vector<std::pair<std::string, double>> extra = {
      {"sim_ms", to_seconds(r.elapsed) * 1e3},
      {"dup_share", dup_share},
      {"mops_per_sec", r.ops_per_sec / 1e6},
      {"migrations", static_cast<double>(r.migrations)},
      {"lat_p50_us", to_us(lat.p50())},
      {"lat_p99_us", to_us(lat.p99())},
      {"lat_max_us", to_us(lat.max())}};
  bench::add_phase_p99s(r.lat, &extra);
  return extra;
}

}  // namespace

void stream_graph(bench::Harness& h, bench::SweepPool& pool) {
  const auto emu_cfg = emu::SystemConfig::chick_hw();
  const auto emu2_cfg = emu::SystemConfig::fullspeed_multinode(2);
  const auto xeon_cfg = xeon::SystemConfig::sandy_bridge();

  graph::StreamParams base;
  base.num_vertices = h.quick() ? (1u << 9) : (1u << 11);
  base.inserts = h.quick() ? (1u << 11) : (1u << 13);
  base.epochs = h.quick() ? 2 : 4;
  base.degree_queries = h.quick() ? 32 : 64;

  bench::record_config(h, emu_cfg, "emu.");
  bench::record_config(h, emu2_cfg, "emu2.");
  bench::record_config(h, xeon_cfg, "xeon.");
  h.config("num_vertices", static_cast<long long>(base.num_vertices));
  h.config("inserts", static_cast<long long>(base.inserts));
  h.config("epochs", static_cast<long long>(base.epochs));
  h.config("batch", static_cast<long long>(base.batch));
  h.config("duplicate_fraction", "0.1");
  h.config("degree_queries", static_cast<long long>(base.degree_queries));
  h.config("threads", static_cast<long long>(base.threads));
  h.config("seed", static_cast<long long>(base.seed));
  h.axes("batch", "minserts_per_sec");

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
                      const graph::StreamParams& p) {
    const auto r = be.is_emu ? graph::stream_emu(*be.emu, p)
                             : graph::stream_xeon(*be.xeon, p);
    if (!r.verified) {
      sink.fail(be.series + " streaming oracle check failed: " + r.error);
    }
    return r;
  };

  const std::string table_a =
      "Streaming A: insert + query mix under uniform and skewed update "
      "streams";
  const graph::EdgeDist dists[2] = {graph::EdgeDist::uniform,
                                    graph::EdgeDist::rmat};
  for (const Backend& be : backends) {
    if (!h.enabled(be.series)) continue;
    // emu2 exists to exercise the windowed shard schedule; one skewed
    // point suffices.
    const bool all_dists = be.series != "emu2";
    for (int i = 0; i < 2; ++i) {
      const graph::EdgeDist dist = dists[i];
      if (!all_dists && dist != graph::EdgeDist::rmat) continue;
      pool.submit([&run_point, &be, table_a, dist, i,
                   base](bench::PointSink& sink) {
        graph::StreamParams p = base;
        p.dist = dist;
        sink.table(table_a);
        const auto r = run_point(sink, be, p);
        sink.add_labeled(be.series, to_string(dist), static_cast<double>(i),
                         r.inserts_per_sec / 1e6, point_extras(r));
      });
    }
  }

  const std::string table_b =
      "Streaming B: insert batch-size sweep — sustained insert throughput";
  const std::vector<std::uint32_t> batches =
      h.quick() ? std::vector<std::uint32_t>{16, 64, 256}
                : std::vector<std::uint32_t>{8, 16, 32, 64, 128, 256};
  const Backend sweep_backends[2] = {{"emu_batch", true, &emu_cfg, nullptr},
                                     {"xeon_batch", false, nullptr,
                                      &xeon_cfg}};
  for (const Backend& be : sweep_backends) {
    if (!h.enabled(be.series)) continue;
    for (std::uint32_t b : batches) {
      pool.submit([&run_point, &be, table_b, b,
                   base](bench::PointSink& sink) {
        graph::StreamParams p = base;
        p.batch = b;
        p.degree_queries = 0;  // isolate the insert path
        p.bfs_queries = 0;
        sink.table(table_b);
        const auto r = run_point(sink, be, p);
        sink.add(be.series, static_cast<double>(b),
                 r.inserts_per_sec / 1e6, point_extras(r));
      });
    }
  }

  const std::string table_c =
      "Streaming C: triangle counting on the same graph families";
  if (h.enabled("tc_emu") || h.enabled("tc_xeon")) {
    for (int i = 0; i < 2; ++i) {
      const graph::EdgeDist dist = dists[i];
      pool.submit([&h, &emu_cfg, &xeon_cfg, table_c, dist, i,
                   base](bench::PointSink& sink) {
        sink.table(table_c);
        const graph::Graph g =
            dist == graph::EdgeDist::uniform
                ? graph::make_uniform_random(base.num_vertices, 8.0,
                                             base.seed)
                : graph::make_rmat(h.quick() ? 9 : 11, 4, base.seed);
        if (h.enabled("tc_emu")) {
          kernels::TcEmuParams p;
          p.g = &g;
          const auto r = run_tc_emu(emu_cfg, p);
          if (!r.verified) {
            sink.fail("tc_emu count mismatch vs reference");
          }
          sink.add_labeled(
              "tc_emu", to_string(dist), static_cast<double>(i), r.mteps,
              {{"sim_ms", to_seconds(r.elapsed) * 1e3},
               {"triangles", static_cast<double>(r.triangles)},
               {"migrations", static_cast<double>(r.migrations)}});
        }
        if (h.enabled("tc_xeon")) {
          kernels::TcXeonParams p;
          p.g = &g;
          const auto r = run_tc_xeon(xeon_cfg, p);
          if (!r.verified) {
            sink.fail("tc_xeon count mismatch vs reference");
          }
          sink.add_labeled("tc_xeon", to_string(dist),
                           static_cast<double>(i), r.mteps,
                           {{"sim_ms", to_seconds(r.elapsed) * 1e3},
                            {"triangles", static_cast<double>(r.triangles)},
                            {"llc_hit_rate", r.llc_hit_rate}});
        }
      });
    }
  }

  pool.wait(h);
}
