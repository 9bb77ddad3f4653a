// Extension: BFS on the Emu machine model over the paper's motivating graph
// shapes — a deep low-degree grid, a uniform random graph, and a skewed
// RMAT graph — on the Chick and the full-speed design point.
//
// BFS composes everything the paper characterizes: frontier spawn trees
// (Fig 5), fine-grained random access (Fig 6), and migration-bound edge
// relaxations (Fig 10); the RMAT hub vertices stress load balance the way
// streaming-graph workloads do.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/bfs_emu.hpp"
#include "kernels/bfs_xeon.hpp"
#include "sweep_pool.hpp"

using namespace emusim;

void ext_bfs(bench::Harness& h, bench::SweepPool& pool) {
  bench::record_config(h, emu::SystemConfig::chick_hw(), "emu.");
  bench::record_config(h, xeon::SystemConfig::sandy_bridge(), "xeon.");
  h.axes("graph", "mteps");
  h.table("Extension: BFS (MTEPS), Emu model vs Sandy Bridge Xeon", 2);

  struct Case {
    const char* name;
    graph::Graph g;
    std::size_t source;
  };
  std::vector<Case> cases;
  cases.push_back({"grid", graph::make_grid_2d(h.quick() ? 16 : 64), 0});
  {
    auto g = graph::make_uniform_random(h.quick() ? 1000 : 16384, 16.0, 5);
    cases.push_back({"uniform", std::move(g), 0});
  }
  {
    auto g = graph::make_rmat(h.quick() ? 9 : 13, 16, 5);
    std::size_t hub = 0;
    for (std::size_t v = 0; v < g.num_vertices; ++v) {
      if (g.degree(v) > g.degree(hub)) hub = v;
    }
    cases.push_back({"rmat", std::move(g), hub});
  }

  // Configs recorded on the main thread before any job runs, so the
  // fingerprint matches the serial binary; the graphs are shared read-only.
  for (const auto& c : cases) {
    h.config(std::string(c.name) + "_directed_edges",
             static_cast<long long>(c.g.num_directed_edges()));
  }

  double x = 0;
  for (const auto& c : cases) {
    pool.submit([&h, &c, x](bench::PointSink& sink) {
      const double edges = static_cast<double>(c.g.num_directed_edges());

      kernels::BfsEmuParams p;
      p.g = &c.g;
      p.source = c.source;
      const auto hw = kernels::run_bfs_emu(emu::SystemConfig::chick_hw(), p);
      const auto full =
          kernels::run_bfs_emu(emu::SystemConfig::chick_fullspeed(), p);
      kernels::BfsXeonParams xp;
      xp.g = &c.g;
      xp.source = c.source;
      xp.threads = 16;
      const auto xr =
          kernels::run_bfs_xeon(xeon::SystemConfig::sandy_bridge(), xp);
      if (!hw.verified || !full.verified || !xr.verified) {
        sink.fail(std::string("BFS verification failed on ") + c.name);
      }

      if (h.enabled("chick_hw")) {
        sink.add_labeled("chick_hw", c.name, x, hw.mteps,
                         {{"levels", static_cast<double>(hw.levels)},
                          {"migrations_per_edge",
                           static_cast<double>(hw.migrations) / edges},
                          {"sim_ms", to_seconds(hw.elapsed) * 1e3}});
      }
      if (h.enabled("chick_fullspeed")) {
        sink.add_labeled("chick_fullspeed", c.name, x, full.mteps,
                         {{"levels", static_cast<double>(full.levels)},
                          {"sim_ms", to_seconds(full.elapsed) * 1e3}});
      }
      if (h.enabled("xeon16")) {
        sink.add_labeled("xeon16", c.name, x, xr.mteps,
                         {{"sim_ms", to_seconds(xr.elapsed) * 1e3}});
      }
    });
    x += 1;
  }
  pool.wait(h);
}
