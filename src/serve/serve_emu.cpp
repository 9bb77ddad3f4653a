#include "serve/service.hpp"

#include "emu/machine.hpp"

namespace emusim::serve {

using emu::Context;
using emu::Machine;

namespace {

constexpr std::uint64_t kTraverseCycles = 8;  ///< per-node key comparisons
constexpr std::uint64_t kUpsertCycles = 120;  ///< leaf edit + bookkeeping
constexpr std::uint64_t kScanCyclesPerElem = 2;

/// One request, executed by its own threadlet born on the family's nodelet:
/// timed tree access, then the op's counters and latency go into `tally`.
sim::Op<> serve_one(Context& ctx, BTreeForest* forest, Request req,
                    ServeResult* tally, Time t0) {
  const int fam = ctx.nodelet();
  BTreeFamily& t = forest->family(fam);
  ++forest->range_ops[static_cast<std::size_t>(fam)];

  std::vector<std::uint32_t> path;
  t.path_to(req.key, &path);
  for (const std::uint32_t id : path) {
    co_await ctx.issue(kTraverseCycles);
    co_await ctx.read_local(t.node(id).addr, 64);
  }

  switch (req.op) {
    case OpKind::lookup: {
      std::uint64_t v = 0;
      const bool hit = t.lookup(req.key, &v);
      ++tally->lookups;
      // Every lookup targets a preloaded key: a miss or a stale value is a
      // verification failure (lookups - hits).
      if (hit && v == value_of_key(req.key)) ++tally->hits;
      break;
    }
    case OpKind::insert: {
      co_await ctx.issue(kUpsertCycles);
      const UpsertOutcome o = t.upsert(req.key, value_of_key(req.key));
      ctx.write_local(t.node(o.leaf).addr, 64);
      for (int i = 0; i < o.new_nodes; ++i) {
        const auto id =
            static_cast<std::uint32_t>(t.num_nodes() - 1 -
                                       static_cast<std::size_t>(i));
        ctx.write_local(t.node(id).addr, 64);
      }
      ++tally->inserts;
      tally->added += o.added ? 1 : 0;
      break;
    }
    case OpKind::scan: {
      const auto plan = t.scan_plan(req.key, req.scan_len);
      std::uint64_t visited = 0;
      for (const ScanStep& step : plan) {
        co_await ctx.issue(step.elems * kScanCyclesPerElem);
        co_await ctx.read_local(t.node(step.leaf).addr,
                                step.elems * 16);
        visited += step.elems;
      }
      ++tally->scans;
      tally->scanned += visited;
      break;
    }
  }
  tally->lat.record(static_cast<std::size_t>(req.op),
                    ctx.engine().now() - t0 - req.arrival);
}

/// Warm one family: read every node once on its owning nodelet.
sim::Op<> warm_family(Context& ctx, BTreeForest* forest) {
  const BTreeFamily& t = forest->family(ctx.nodelet());
  for (std::size_t id = 0; id < t.num_nodes(); ++id) {
    co_await ctx.read_local(t.node(static_cast<std::uint32_t>(id)).addr, 64);
  }
}

/// The frontend: waits for each batch's arrival, remote-spawns one
/// threadlet per request at the owning nodelet, and syncs — the sync is the
/// per-batch completion barrier that bounds the backlog.
sim::Op<> dispatch(Context& ctx, const std::vector<Request>* stream,
                   std::size_t batch, bool warmup, BTreeForest* forest,
                   ServeResult* tally, Time* t0) {
  if (warmup) {
    for (int f = 0; f < forest->num_families(); ++f) {
      co_await ctx.spawn_at(f, [forest](Context& c) {
        return warm_family(c, forest);
      });
    }
    co_await ctx.sync();
  }
  *t0 = ctx.engine().now();  // the arrival clock starts after warmup
  for (std::size_t i = 0; i < stream->size(); i += batch) {
    co_await ctx.engine().sleep_until(*t0 + (*stream)[i].arrival);
    const std::size_t end =
        i + batch < stream->size() ? i + batch : stream->size();
    for (std::size_t j = i; j < end; ++j) {
      const Request r = (*stream)[j];
      const int dest = forest->family_of(r.key);
      co_await ctx.spawn_at(dest, [forest, r, tally, t0](Context& c) {
        return serve_one(c, forest, r, tally, *t0);
      });
    }
    co_await ctx.sync();
  }
}

}  // namespace

ServeResult serve_emu(const emu::SystemConfig& cfg, const ServeParams& p) {
  Machine m(cfg);
  // One family per nodelet: the key-range partition IS the data placement,
  // so family_of(key) doubles as the spawn destination.
  const int nf = m.num_nodelets();
  BTreeForest forest(nf, p.stream.key_space, p.fanout,
                     [&m](int f, std::uint64_t bytes) {
                       return m.nodelet(f).allocate(bytes, 8);
                     });
  forest.preload_even();
  const auto stream = generate_stream(p.stream);

  ServeResult r;
  Time t0 = 0;
  m.run_root([&](Context& ctx) {
    return dispatch(ctx, &stream, p.stream.batch, p.warmup, &forest, &r,
                    &t0);
  });
  finish_result(m.engine().now() - t0, forest, stream, &r);  // excl. warmup
  return r;
}

}  // namespace emusim::serve
