#include "kernels/bfs_emu.hpp"

#include <algorithm>
#include <vector>

#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"
#include "emu/runtime/parallel.hpp"

namespace emusim::kernels {

using emu::Chunked;
using emu::Context;
using emu::Striped1D;
using graph::kBfsUnreached;
using sim::Op;

namespace {

struct BfsState {
  const graph::Graph* g;
  int nlets;

  Striped1D<std::int64_t> dist;  ///< timed image of the distance array
  Chunked<std::uint32_t> adj;    ///< adjacency stored at each vertex's home
  Chunked<std::uint32_t> queue;  ///< per-nodelet frontier storage

  std::vector<std::uint32_t> dist_host;
  std::vector<std::uint64_t> adj_local_off;  ///< per-vertex offset in chunk
  std::vector<std::vector<std::uint32_t>> frontier, next_frontier;

  static std::vector<std::size_t> adj_counts(const graph::Graph& g,
                                             int nlets) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(nlets), 0);
    for (std::size_t v = 0; v < g.num_vertices; ++v) {
      counts[v % static_cast<std::size_t>(nlets)] += g.degree(v);
    }
    return counts;
  }
  static std::vector<std::size_t> queue_counts(const graph::Graph& g,
                                               int nlets) {
    // Worst case: every vertex homed here lands in the queue.
    std::vector<std::size_t> counts(static_cast<std::size_t>(nlets), 0);
    for (std::size_t v = 0; v < g.num_vertices; ++v) {
      ++counts[v % static_cast<std::size_t>(nlets)];
    }
    return counts;
  }

  BfsState(emu::Machine& m, const graph::Graph& graph)
      : g(&graph),
        nlets(m.num_nodelets()),
        dist(m, graph.num_vertices),
        adj(m, adj_counts(graph, m.num_nodelets())),
        queue(m, queue_counts(graph, m.num_nodelets())),
        dist_host(graph.num_vertices, kBfsUnreached),
        adj_local_off(graph.num_vertices, 0),
        frontier(static_cast<std::size_t>(nlets)),
        next_frontier(static_cast<std::size_t>(nlets)) {
    // Lay each vertex's adjacency into its home nodelet's chunk.
    std::vector<std::uint64_t> fill(static_cast<std::size_t>(nlets), 0);
    for (std::size_t v = 0; v < graph.num_vertices; ++v) {
      const auto d = static_cast<std::size_t>(v % static_cast<std::size_t>(nlets));
      adj_local_off[v] = fill[d];
      for (auto k = graph.row_ptr[v]; k < graph.row_ptr[v + 1]; ++k) {
        adj.at(static_cast<int>(d), fill[d]++) =
            graph.adj[static_cast<std::size_t>(k)];
      }
    }
  }

  int home(std::uint32_t v) const { return dist.home(v); }
};

/// Process one frontier vertex: read its (local) adjacency, then migrate to
/// each unvisited neighbour's home to claim it.
Op<> relax_vertex(Context& ctx, BfsState* st, std::uint32_t u,
                  std::uint32_t next_level) {
  const int home_u = st->home(u);
  if (ctx.nodelet() != home_u) co_await ctx.migrate_to(home_u);
  co_await ctx.issue(kBfsCyclesPerVertex);

  const auto deg = st->g->degree(u);
  const auto base = st->adj_local_off[u];
  // Stream the (local) adjacency list: one channel access per 8 bytes.
  for (std::size_t off = 0; off < deg * 4; off += 8) {
    co_await ctx.read_local(
        st->adj.byte_addr(home_u, base) + off,
        static_cast<std::uint32_t>(std::min<std::size_t>(8, deg * 4 - off)));
  }

  for (std::size_t k = 0; k < deg; ++k) {
    const std::uint32_t v = st->adj.at(home_u, base + k);
    co_await ctx.issue(kBfsCyclesPerEdge);
    const int home_v = st->home(v);
    // Cheap already-claimed pre-check, only against state this shard owns:
    // claims to v are serialized on v's home shard, and shards run each
    // window one after another, so peeking at dist_host[v] from another
    // shard could see a claim made later in simulated time in the same
    // window.  An off-shard v migrates and re-checks authoritatively
    // below, exactly as before.
    if (ctx.shard() == ctx.machine().node_index_of(home_v) &&
        st->dist_host[v] != kBfsUnreached) {
      continue;
    }
    if (ctx.nodelet() != home_v) co_await ctx.migrate_to(home_v);
    co_await ctx.read_local(st->dist.byte_addr(v), 8);
    // Test-and-claim is atomic here: the DES interleaves threadlets only at
    // awaits, so the host-side check above and this claim cannot race.
    if (st->dist_host[v] == kBfsUnreached) {
      st->dist_host[v] = next_level;
      ctx.write_local(st->dist.byte_addr(v), 8);
      auto& nq = st->next_frontier[static_cast<std::size_t>(home_v)];
      ctx.write_local(st->queue.byte_addr(home_v, nq.size()), 8);
      nq.push_back(v);
    }
  }
}

Op<> bfs_level(Context& ctx, BfsState* st, std::uint32_t next_level,
               std::size_t grain) {
  co_await emu::on_each_nodelet(ctx, [st, next_level,
                                      grain](Context& c) -> Op<> {
    const auto& fq = st->frontier[static_cast<std::size_t>(c.nodelet())];
    co_await emu::parallel_apply(
        c, 0, fq.size(), grain,
        [st, &fq, next_level](Context& t, std::size_t i) {
          return relax_vertex(t, st, fq[i], next_level);
        });
  });
}

}  // namespace

BfsEmuResult run_bfs_emu(const emu::SystemConfig& cfg, const BfsEmuParams& p) {
  EMUSIM_CHECK(p.g != nullptr && p.source < p.g->num_vertices);
  emu::Machine m(cfg);
  BfsState st(m, *p.g);

  st.dist_host[p.source] = 0;
  st.frontier[static_cast<std::size_t>(st.home(
      static_cast<std::uint32_t>(p.source)))]
      .push_back(static_cast<std::uint32_t>(p.source));

  int levels = 0;
  const Time elapsed = m.run_root([&](Context& ctx) -> Op<> {
    for (std::uint32_t level = 1;; ++level) {
      bool any = false;
      for (const auto& fq : st.frontier) any = any || !fq.empty();
      if (!any) break;
      ++levels;
      co_await bfs_level(ctx, &st, level, p.grain);
      st.frontier.swap(st.next_frontier);
      for (auto& q : st.next_frontier) q.clear();
    }
  });

  BfsEmuResult r;
  r.elapsed = elapsed;
  r.levels = levels;
  r.migrations = m.stats.migrations;
  r.mteps = static_cast<double>(p.g->num_directed_edges()) /
            to_seconds(elapsed) / 1e6;
  r.verified = st.dist_host == graph::bfs_reference(*p.g, p.source);
  return r;
}

}  // namespace emusim::kernels
