#include "graph/stream_graph.hpp"

#include <algorithm>
#include <coroutine>
#include <deque>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"
#include "sim/random.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "xeon/machine.hpp"

namespace emusim::graph {

namespace {

// Cost model shared by both backends (issue/compute cycles; the memory
// traffic dominates either way).
constexpr std::uint64_t kInsertSetupCycles = 40;  ///< id decode, block walk
constexpr std::uint64_t kScanCyclesPerEdge = 2;   ///< duplicate-check compare
constexpr std::uint64_t kDegreeCycles = 10;
constexpr std::uint64_t kBfsVisitCycles = 12;
/// Edge slots per allocated edge block (8 B per slot, STINGER-style).
constexpr std::size_t kEdgeBlockSlots = 16;

std::size_t blocks_needed(std::size_t degree) {
  return (degree + kEdgeBlockSlots - 1) / kEdgeBlockSlots;
}

}  // namespace

std::vector<std::string> stream_phases() {
  return {"insert", "degree", "bfs"};
}

const char* to_string(EdgeDist d) {
  switch (d) {
    case EdgeDist::uniform: return "uniform";
    case EdgeDist::rmat: return "rmat";
  }
  return "?";
}

StreamWorkload make_stream_workload(const StreamParams& p) {
  EMUSIM_CHECK(p.num_vertices >= 2);
  EMUSIM_CHECK(p.epochs >= 1);
  sim::Rng rng(p.seed);
  const std::size_t n = p.num_vertices;
  int scale = 0;
  while ((std::size_t{1} << scale) < n) ++scale;

  StreamWorkload w;
  w.num_vertices = n;
  w.epochs = p.epochs;
  w.inserts.reserve(p.inserts);

  auto rmat_pair = [&]() {
    // Same quadrant recursion as make_rmat (a=0.57, b=c=0.19), folded into
    // [0, n) for non-power-of-two vertex counts.
    constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
    std::uint32_t u = 0, v = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double r = rng.uniform();
      u <<= 1;
      v <<= 1;
      if (r < kA) {
      } else if (r < kA + kB) {
        v |= 1;
      } else if (r < kA + kB + kC) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    return StreamEdge{static_cast<std::uint32_t>(u % n),
                      static_cast<std::uint32_t>(v % n)};
  };

  for (std::size_t i = 0; i < p.inserts; ++i) {
    if (!w.inserts.empty() && rng.uniform() < p.duplicate_fraction) {
      // Re-insert an already-streamed edge: must commit as a no-op.
      w.inserts.push_back(w.inserts[rng.below(w.inserts.size())]);
      continue;
    }
    StreamEdge e;
    if (p.dist == EdgeDist::uniform) {
      e.u = static_cast<std::uint32_t>(rng.below(n));
      e.v = static_cast<std::uint32_t>(rng.below(n));
    } else {
      e = rmat_pair();
    }
    if (e.u == e.v) e.v = static_cast<std::uint32_t>((e.u + 1) % n);
    w.inserts.push_back(e);
  }

  w.degree_queries.resize(p.epochs);
  w.bfs_sources.resize(p.epochs);
  for (std::size_t e = 0; e < p.epochs; ++e) {
    for (std::uint32_t q = 0; q < p.degree_queries; ++q) {
      w.degree_queries[e].push_back(static_cast<std::uint32_t>(rng.below(n)));
    }
    for (std::uint32_t q = 0; q < p.bfs_queries; ++q) {
      w.bfs_sources[e].push_back(static_cast<std::uint32_t>(rng.below(n)));
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// StreamGraph (host structure)
// ---------------------------------------------------------------------------

StreamGraph::StreamGraph(std::size_t num_vertices, int nodelets)
    : nodelets_(nodelets), adj_(num_vertices) {
  EMUSIM_CHECK(nodelets >= 1);
}

bool StreamGraph::insert_half(std::uint32_t u, std::uint32_t v) {
  auto& list = adj_[u];
  if (std::find(list.begin(), list.end(), v) != list.end()) return false;
  list.push_back(v);
  ++half_edges_;
  return true;
}

Graph StreamGraph::snapshot() const {
  Graph g;
  g.num_vertices = adj_.size();
  g.row_ptr.assign(adj_.size() + 1, 0);
  for (std::size_t u = 0; u < adj_.size(); ++u) {
    g.row_ptr[u + 1] =
        g.row_ptr[u] + static_cast<std::int64_t>(adj_[u].size());
  }
  g.adj.reserve(static_cast<std::size_t>(g.row_ptr.back()));
  for (const auto& list : adj_) {
    std::vector<std::uint32_t> sorted(list);
    std::sort(sorted.begin(), sorted.end());
    g.adj.insert(g.adj.end(), sorted.begin(), sorted.end());
  }
  return g;
}

namespace {

// ---------------------------------------------------------------------------
// shared epoch-oracle checks (host-side; cost-free on the simulated clock)
// ---------------------------------------------------------------------------

bool check_epoch_snapshot(const StreamGraph& g, const StreamWorkload& w,
                          std::size_t epoch, std::string* err) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const std::size_t end = w.epoch_end(epoch);
  edges.reserve(end);
  for (std::size_t i = 0; i < end; ++i) {
    edges.emplace_back(w.inserts[i].u, w.inserts[i].v);
  }
  const Graph oracle = from_edge_list(w.num_vertices, std::move(edges));
  const Graph snap = g.snapshot();
  if (snap.row_ptr != oracle.row_ptr || snap.adj != oracle.adj) {
    *err = "epoch " + std::to_string(epoch) +
           ": streamed snapshot != batch-built oracle";
    return false;
  }
  return true;
}

bool check_bfs(const StreamGraph& g, const std::vector<std::uint32_t>& dist,
               std::uint32_t src, std::size_t epoch, std::string* err) {
  const Graph snap = g.snapshot();
  if (dist != bfs_reference(snap, src)) {
    *err = "epoch " + std::to_string(epoch) + ": BFS from " +
           std::to_string(src) + " != reference on flushed snapshot";
    return false;
  }
  return true;
}

struct DriveOut {
  Time insert_time = 0;
  bool ok = true;
  std::string error;
};

// ---------------------------------------------------------------------------
// emu backend
// ---------------------------------------------------------------------------

using emu::Context;

/// Per-shard latency accumulators (the serve_emu scheme): a threadlet
/// records on the shard it finishes on; shards never share an entry and the
/// entries merge in shard order afterwards.
struct EmuTally {
  serve::PhasedLatency lat{stream_phases()};
};

struct EmuStream {
  emu::Machine* m;
  StreamGraph* g;
  /// Per-vertex degree word; Striped1D's word-granular home (v % nodelets)
  /// IS the StreamGraph home, so the counter always lives with the list.
  emu::Striped1D<std::uint64_t> deg;
  /// Per-vertex edge-block base addresses, allocated from the home
  /// nodelet's local memory as the list grows.  Host bookkeeping owned by
  /// the home shard — only threads resident there touch a vertex's entry.
  std::vector<std::vector<std::uint64_t>> blocks;
  std::vector<EmuTally> tallies;

  EmuStream(emu::Machine& machine, StreamGraph& graph)
      : m(&machine),
        g(&graph),
        deg(machine, graph.num_vertices()),
        blocks(graph.num_vertices()),
        tallies(static_cast<std::size_t>(machine.num_shards())) {}
};

/// Timed duplicate scan + CAS-ordered append of half-edge u -> v.  The
/// caller is resident on u's home nodelet.  The membership recheck and the
/// host append happen between suspension points — atomic on the simulated
/// clock, the CAS commit — while the timed scan before it pays for the walk
/// over the current edge blocks.
sim::Op<> scan_append(Context& ctx, EmuStream* st, std::uint32_t u,
                      std::uint32_t v) {
  co_await ctx.issue(kInsertSetupCycles);
  co_await ctx.read_local(st->deg.byte_addr(u), 8);
  const std::size_t scanned = st->g->degree(u);
  for (std::size_t b = 0; b * kEdgeBlockSlots < scanned; ++b) {
    const auto span = static_cast<std::uint32_t>(
        std::min(kEdgeBlockSlots, scanned - b * kEdgeBlockSlots) * 8);
    co_await ctx.read_local(st->blocks[u][b], span);
  }
  co_await ctx.issue(kScanCyclesPerEdge * (st->g->degree(u) + 1));
  if (st->g->insert_half(u, v)) {
    const std::size_t d = st->g->degree(u);
    while (st->blocks[u].size() < blocks_needed(d)) {
      st->blocks[u].push_back(
          st->m->nodelet(ctx.nodelet()).allocate(kEdgeBlockSlots * 8));
    }
    const std::size_t slot = d - 1;
    ctx.write_local(st->blocks[u][slot / kEdgeBlockSlots] +
                        (slot % kEdgeBlockSlots) * 8,
                    8);
    ctx.write_local(st->deg.byte_addr(u), 8);  // the CAS'd degree word
  }
}

/// One inserted edge: a threadlet born at u's home appends the u-side, then
/// migrates to v's home for the mirror half.  Mutation never leaves the
/// owning nodelet's shard.
sim::Op<> insert_one(Context& ctx, EmuStream* st, StreamEdge e, Time b0) {
  co_await scan_append(ctx, st, e.u, e.v);
  const int hv = st->g->home(e.v);
  if (hv != ctx.nodelet()) co_await ctx.migrate_to(hv);
  co_await scan_append(ctx, st, e.v, e.u);
  st->tallies[static_cast<std::size_t>(ctx.shard())].lat.record(
      static_cast<std::size_t>(StreamPhase::insert),
      ctx.engine().now() - b0);
}

sim::Op<> degree_one(Context& ctx, EmuStream* st, std::uint32_t u, Time b0) {
  co_await ctx.issue(kDegreeCycles);
  co_await ctx.read_local(st->deg.byte_addr(u), 8);
  st->tallies[static_cast<std::size_t>(ctx.shard())].lat.record(
      static_cast<std::size_t>(StreamPhase::degree),
      ctx.engine().now() - b0);
}

/// Serial migratory BFS over the streamed structure: the thread follows the
/// frontier from home to home, reading each vertex's edge blocks locally.
sim::Op<> bfs_one(Context& ctx, EmuStream* st, std::uint32_t src,
                  std::vector<std::uint32_t>* out) {
  const Time t0 = ctx.engine().now();
  out->assign(st->g->num_vertices(), kBfsUnreached);
  std::deque<std::uint32_t> queue;
  (*out)[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    const int h = st->g->home(u);
    if (h != ctx.nodelet()) co_await ctx.migrate_to(h);
    co_await ctx.issue(kBfsVisitCycles);
    co_await ctx.read_local(st->deg.byte_addr(u), 8);
    const auto& nb = st->g->neighbors(u);
    for (std::size_t b = 0; b * kEdgeBlockSlots < nb.size(); ++b) {
      const auto span = static_cast<std::uint32_t>(
          std::min(kEdgeBlockSlots, nb.size() - b * kEdgeBlockSlots) * 8);
      co_await ctx.read_local(st->blocks[u][b], span);
    }
    for (const std::uint32_t v : nb) {
      if ((*out)[v] == kBfsUnreached) {
        (*out)[v] = (*out)[u] + 1;
        queue.push_back(v);
      }
    }
  }
  st->tallies[static_cast<std::size_t>(ctx.shard())].lat.record(
      static_cast<std::size_t>(StreamPhase::bfs), ctx.engine().now() - t0);
}

sim::Op<> drive_emu(Context& ctx, EmuStream* st, const StreamWorkload* w,
                    std::uint32_t batch, DriveOut* out) {
  for (std::size_t e = 0; e < w->epochs; ++e) {
    const Time e0 = ctx.engine().now();
    const std::size_t lo = w->epoch_begin(e), hi = w->epoch_end(e);
    for (std::size_t i = lo; i < hi; i += batch) {
      const Time b0 = ctx.engine().now();
      const std::size_t end = std::min<std::size_t>(i + batch, hi);
      for (std::size_t j = i; j < end; ++j) {
        const StreamEdge edge = w->inserts[j];
        co_await ctx.spawn_at(st->g->home(edge.u),
                              [st, edge, b0](Context& c) {
                                return insert_one(c, st, edge, b0);
                              });
      }
      co_await ctx.sync();  // the flush barrier bounding each batch
    }
    out->insert_time += ctx.engine().now() - e0;
    if (!check_epoch_snapshot(*st->g, *w, e, &out->error)) {
      out->ok = false;
      co_return;
    }
    const Time q0 = ctx.engine().now();
    for (const std::uint32_t u : w->degree_queries[e]) {
      co_await ctx.spawn_at(st->g->home(u), [st, u, q0](Context& c) {
        return degree_one(c, st, u, q0);
      });
    }
    co_await ctx.sync();
    for (const std::uint32_t src : w->bfs_sources[e]) {
      std::vector<std::uint32_t> dist;
      co_await bfs_one(ctx, st, src, &dist);
      if (!check_bfs(*st->g, dist, src, e, &out->error)) {
        out->ok = false;
        co_return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// xeon backend
// ---------------------------------------------------------------------------

using xeon::CpuContext;

/// Countdown barrier joining one batch's workers back to the driver (the
/// serve_xeon scheme).
struct BatchJoin {
  sim::Engine* eng = nullptr;
  int pending = 0;
  std::coroutine_handle<> waiter;

  void done() {
    if (--pending == 0 && waiter) {
      eng->schedule_now(std::exchange(waiter, {}));
    }
  }
  auto wait() {
    struct Awaiter {
      BatchJoin& j;
      bool await_ready() const noexcept { return j.pending == 0; }
      void await_suspend(std::coroutine_handle<> h) { j.waiter = h; }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }
};

/// Writer latches are striped over vertices, not per-vertex: the coarse
/// latch table a lock-based streaming graph starts from.
constexpr std::uint32_t kXeonStripes = 64;

struct XeonStream {
  xeon::Machine* m;
  StreamGraph* g;
  std::uint64_t deg_base = 0;  ///< n degree words
  std::vector<std::vector<std::uint64_t>> blocks;
  std::vector<std::unique_ptr<sim::Semaphore>> latches;
  serve::PhasedLatency lat{stream_phases()};
};

std::uint32_t stripe_of(std::uint32_t v) { return v % kXeonStripes; }

sim::Op<> x_scan_append(CpuContext& ctx, XeonStream* st, std::uint32_t u,
                        std::uint32_t v) {
  co_await ctx.compute(kInsertSetupCycles);
  co_await ctx.load(st->deg_base + u * 8);
  const std::size_t scanned = st->g->degree(u);
  for (std::size_t b = 0; b * kEdgeBlockSlots < scanned; ++b) {
    // Touch each 64 B line of the block actually occupied.
    const std::size_t span =
        std::min(kEdgeBlockSlots, scanned - b * kEdgeBlockSlots) * 8;
    for (std::size_t off = 0; off < span; off += 64) {
      co_await ctx.load(st->blocks[u][b] + off);
    }
  }
  co_await ctx.compute(kScanCyclesPerEdge * (st->g->degree(u) + 1));
  if (st->g->insert_half(u, v)) {
    const std::size_t d = st->g->degree(u);
    while (st->blocks[u].size() < blocks_needed(d)) {
      st->blocks[u].push_back(st->m->allocate(kEdgeBlockSlots * 8));
    }
    const std::size_t slot = d - 1;
    ctx.store(st->blocks[u][slot / kEdgeBlockSlots] +
              (slot % kEdgeBlockSlots) * 8);
    ctx.store(st->deg_base + u * 8);
  }
}

/// One inserted edge under the stripe latches, acquired in ascending stripe
/// order so two-latch inserts cannot deadlock against each other.
sim::Op<> x_insert(CpuContext& ctx, XeonStream* st, StreamEdge e, Time b0) {
  std::uint32_t s1 = stripe_of(e.u), s2 = stripe_of(e.v);
  if (s1 > s2) std::swap(s1, s2);
  co_await st->latches[s1]->acquire();
  if (s2 != s1) co_await st->latches[s2]->acquire();
  co_await x_scan_append(ctx, st, e.u, e.v);
  co_await x_scan_append(ctx, st, e.v, e.u);
  if (s2 != s1) st->latches[s2]->release();
  st->latches[s1]->release();
  st->lat.record(static_cast<std::size_t>(StreamPhase::insert),
                 st->m->engine().now() - b0);
}

sim::Op<> x_degree(CpuContext& ctx, XeonStream* st, std::uint32_t u,
                   Time b0) {
  co_await ctx.compute(kDegreeCycles);
  co_await ctx.load(st->deg_base + u * 8);
  st->lat.record(static_cast<std::size_t>(StreamPhase::degree),
                 st->m->engine().now() - b0);
}

sim::Op<> x_bfs(CpuContext& ctx, XeonStream* st, std::uint32_t src,
                std::vector<std::uint32_t>* out) {
  const Time t0 = st->m->engine().now();
  out->assign(st->g->num_vertices(), kBfsUnreached);
  std::deque<std::uint32_t> queue;
  (*out)[src] = 0;
  queue.push_back(src);
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    co_await ctx.compute(kBfsVisitCycles);
    co_await ctx.load(st->deg_base + u * 8);
    const auto& nb = st->g->neighbors(u);
    for (std::size_t b = 0; b * kEdgeBlockSlots < nb.size(); ++b) {
      const std::size_t span =
          std::min(kEdgeBlockSlots, nb.size() - b * kEdgeBlockSlots) * 8;
      for (std::size_t off = 0; off < span; off += 64) {
        co_await ctx.load(st->blocks[u][b] + off);
      }
    }
    for (const std::uint32_t v : nb) {
      if ((*out)[v] == kBfsUnreached) {
        (*out)[v] = (*out)[u] + 1;
        queue.push_back(v);
      }
    }
  }
  st->lat.record(static_cast<std::size_t>(StreamPhase::bfs),
                 st->m->engine().now() - t0);
}

/// One worker's strided share of a batch slice [begin, end).
template <class OpFn>
sim::Task x_batch_worker(CpuContext ctx, std::size_t begin, std::size_t end,
                         std::size_t stride, BatchJoin* join, OpFn op) {
  for (std::size_t i = begin; i < end; i += stride) {
    co_await op(ctx, i);
  }
  join->done();
}

sim::Task drive_xeon(XeonStream* st, const StreamWorkload* w,
                     std::uint32_t batch, int threads, BatchJoin* join,
                     DriveOut* out) {
  xeon::Machine& m = *st->m;
  auto run_batch = [&](std::size_t lo, std::size_t hi,
                       auto op) -> sim::Op<> {
    const auto nw = std::min<std::size_t>(
        static_cast<std::size_t>(threads), hi - lo);
    join->pending = static_cast<int>(nw);
    join->waiter = {};
    for (std::size_t wk = 0; wk < nw; ++wk) {
      auto task = x_batch_worker(
          CpuContext(m, static_cast<int>(wk) % m.cfg().cores), lo + wk, hi,
          nw, join, op);
      task.start();
    }
    co_await join->wait();
  };

  for (std::size_t e = 0; e < w->epochs; ++e) {
    const Time e0 = m.engine().now();
    const std::size_t lo = w->epoch_begin(e), hi = w->epoch_end(e);
    for (std::size_t i = lo; i < hi; i += batch) {
      const Time b0 = m.engine().now();
      const std::size_t end = std::min<std::size_t>(i + batch, hi);
      co_await run_batch(i, end, [st, w, b0](CpuContext& c, std::size_t j) {
        return x_insert(c, st, w->inserts[j], b0);
      });
    }
    out->insert_time += m.engine().now() - e0;
    if (!check_epoch_snapshot(*st->g, *w, e, &out->error)) {
      out->ok = false;
      co_return;
    }
    if (!w->degree_queries[e].empty()) {
      const Time q0 = m.engine().now();
      const auto* qs = &w->degree_queries[e];
      co_await run_batch(0, qs->size(),
                         [st, qs, q0](CpuContext& c, std::size_t j) {
                           return x_degree(c, st, (*qs)[j], q0);
                         });
    }
    CpuContext bctx(m, 0);
    for (const std::uint32_t src : w->bfs_sources[e]) {
      std::vector<std::uint32_t> dist;
      co_await x_bfs(bctx, st, src, &dist);
      if (!check_bfs(*st->g, dist, src, e, &out->error)) {
        out->ok = false;
        co_return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// result assembly
// ---------------------------------------------------------------------------

void finish_result(const StreamParams& p, const StreamWorkload& w,
                   const StreamGraph& g, const DriveOut& out, Time elapsed,
                   StreamResult* r) {
  r->elapsed = elapsed;
  r->insert_time = out.insert_time;
  r->inserts = w.inserts.size();
  r->new_edges = g.half_edges() / 2;
  for (const auto& qs : w.degree_queries) r->degree_queries += qs.size();
  for (const auto& qs : w.bfs_sources) r->bfs_queries += qs.size();
  r->inserts_per_sec =
      out.insert_time > 0 ? static_cast<double>(r->inserts) /
                                to_seconds(out.insert_time)
                          : 0.0;
  const std::uint64_t ops =
      r->inserts + r->degree_queries + r->bfs_queries;
  r->ops_per_sec =
      elapsed > 0 ? static_cast<double>(ops) / to_seconds(elapsed) : 0.0;
  r->verified = out.ok;
  r->error = out.error;
  if (r->verified && r->lat.overall().count() != ops) {
    r->verified = false;
    r->error = "latency samples != ops";
  }
  if (r->verified && g.half_edges() % 2 != 0) {
    r->verified = false;
    r->error = "asymmetric half-edge count";
  }
  (void)p;
}

}  // namespace

StreamResult stream_emu(const emu::SystemConfig& cfg, const StreamParams& p) {
  const StreamWorkload w = make_stream_workload(p);
  emu::Machine m(cfg);
  StreamGraph g(p.num_vertices, m.num_nodelets());
  EmuStream st(m, g);
  DriveOut out;
  const Time elapsed = m.run_root([&](Context& ctx) {
    return drive_emu(ctx, &st, &w, p.batch, &out);
  });

  StreamResult r;
  for (const EmuTally& t : st.tallies) r.lat.merge(t.lat);
  r.migrations = m.stats.migrations;
  finish_result(p, w, g, out, elapsed, &r);
  return r;
}

StreamResult stream_xeon(const xeon::SystemConfig& cfg,
                         const StreamParams& p) {
  EMUSIM_CHECK(p.threads >= 1);
  const StreamWorkload w = make_stream_workload(p);
  xeon::Machine m(cfg);
  // Stripe the host structure by a nominal 8 "nodelets" so snapshots from
  // both backends describe the same graph (home only affects emu placement).
  StreamGraph g(p.num_vertices, 8);
  XeonStream st;
  st.m = &m;
  st.g = &g;
  st.deg_base = m.allocate(p.num_vertices * 8);
  st.blocks.resize(p.num_vertices);
  st.latches.reserve(kXeonStripes);
  for (std::uint32_t s = 0; s < kXeonStripes; ++s) {
    st.latches.push_back(std::make_unique<sim::Semaphore>(m.engine(), 1));
  }
  BatchJoin join;
  join.eng = &m.engine();
  DriveOut out;

  const Time t0 = m.engine().now();
  auto d = drive_xeon(&st, &w, p.batch, p.threads, &join, &out);
  d.start();
  m.engine().run();
  const Time elapsed = m.engine().now() - t0;

  StreamResult r;
  r.lat.merge(st.lat);
  finish_result(p, w, g, out, elapsed, &r);
  return r;
}

}  // namespace emusim::graph
