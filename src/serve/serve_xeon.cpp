#include "serve/service.hpp"

#include <memory>

#include "common/check.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "xeon/machine.hpp"

namespace emusim::serve {

using xeon::CpuContext;
using xeon::Machine;

namespace {

constexpr std::uint64_t kTraverseCycles = 8;  ///< per-node key comparisons
/// Insert critical section under the family writer latch: lock handoff and
/// fences, leaf edit, version bump, and the write-ahead-log append — the
/// serialization tax a lock-based index pays that the migratory-thread
/// backend does not (there, writer exclusion is physical: one nodelet owns
/// the family).  Held while contending inserts queue, this is what turns
/// key skew into tail latency on the cache machine.
constexpr std::uint64_t kUpsertCycles = 400;
constexpr std::uint64_t kScanCyclesPerElem = 2;

struct XServe {
  Machine* m = nullptr;
  BTreeForest* forest = nullptr;
  Time t0 = 0;  ///< arrival-clock origin (end of warmup)
  /// One writer latch per subtree family (the simple coarse scheme real
  /// engines start from).  Readers go latch-free: the host tree is
  /// consistent at every suspension point, with the leaf chain standing in
  /// for the B-link edges a real latch-free reader relies on.
  std::vector<std::unique_ptr<sim::Semaphore>> latches;
  ServeResult* tally = nullptr;  ///< counts and latency, recorded in place
};

sim::Op<> serve_one(CpuContext& ctx, XServe* st, const Request& req) {
  BTreeForest& forest = *st->forest;
  const int fam = forest.family_of(req.key);
  BTreeFamily& t = forest.family(fam);
  ++forest.range_ops[static_cast<std::size_t>(fam)];

  // Latch-free descent (all ops start with one).
  std::vector<std::uint32_t> path;
  t.path_to(req.key, &path);
  for (const std::uint32_t id : path) {
    co_await ctx.compute(kTraverseCycles);
    co_await ctx.load(t.node(id).addr);
  }

  switch (req.op) {
    case OpKind::lookup: {
      std::uint64_t v = 0;
      const bool hit = t.lookup(req.key, &v);
      ++st->tally->lookups;
      if (hit && v == value_of_key(req.key)) ++st->tally->hits;
      break;
    }
    case OpKind::insert: {
      sim::Semaphore& latch = *st->latches[static_cast<std::size_t>(fam)];
      co_await latch.acquire();
      // A split may have moved the key while we queued: re-resolve and
      // re-read the leaf under the latch before editing.
      co_await ctx.load(t.node(t.resolve_leaf(req.key)).addr);
      co_await ctx.compute(kUpsertCycles);
      const UpsertOutcome o = t.upsert(req.key, value_of_key(req.key));
      ctx.store(t.node(o.leaf).addr);
      for (int i = 0; i < o.new_nodes; ++i) {
        const auto id = static_cast<std::uint32_t>(
            t.num_nodes() - 1 - static_cast<std::size_t>(i));
        ctx.store(t.node(id).addr);
      }
      latch.release();
      ++st->tally->inserts;
      st->tally->added += o.added ? 1 : 0;
      break;
    }
    case OpKind::scan: {
      const auto plan = t.scan_plan(req.key, req.scan_len);
      std::uint64_t visited = 0;
      for (const ScanStep& step : plan) {
        co_await ctx.compute(step.elems * kScanCyclesPerElem);
        // Leaves are contiguous 16 B slots: touch each line once.
        const std::uint64_t base = t.node(step.leaf).addr;
        for (std::uint64_t b = 0; b < step.elems * 16ULL; b += 64) {
          co_await ctx.load(base + b);
        }
        visited += step.elems;
      }
      ++st->tally->scans;
      st->tally->scanned += visited;
      break;
    }
  }
  st->tally->lat.record(static_cast<std::size_t>(req.op),
                        st->m->engine().now() - st->t0 - req.arrival);
}

/// The frontend: waits for each batch's arrival, then drains it on a
/// worker pool (xeon::run_batch) — the batch join bounds the backlog.
sim::Task driver(XServe* st, const std::vector<Request>* stream,
                 std::size_t batch, int threads, bool warmup) {
  Machine& m = *st->m;
  sim::Engine& eng = m.engine();
  if (warmup) {
    // One pass over every node: the index a live server actually runs with
    // is cache-warm.  Sequential per family, so the prefetcher helps.
    CpuContext warm(m, 0);
    BTreeForest& forest = *st->forest;
    for (int f = 0; f < forest.num_families(); ++f) {
      const BTreeFamily& t = forest.family(f);
      for (std::size_t id = 0; id < t.num_nodes(); ++id) {
        co_await warm.load(t.node(static_cast<std::uint32_t>(id)).addr);
      }
    }
  }
  st->t0 = eng.now();  // the arrival clock starts after warmup
  for (std::size_t i = 0; i < stream->size(); i += batch) {
    co_await eng.sleep_until(st->t0 + (*stream)[i].arrival);
    const std::size_t end =
        i + batch < stream->size() ? i + batch : stream->size();
    co_await xeon::run_batch(
        m, i, end, threads, [st, stream](CpuContext& c, std::size_t j) {
          return serve_one(c, st, (*stream)[j]);
        });
  }
}

}  // namespace

ServeResult serve_xeon(const xeon::SystemConfig& cfg, const ServeParams& p) {
  EMUSIM_CHECK(p.threads >= 1);
  Machine m(cfg);
  const int nf = p.num_families >= 1 ? p.num_families : 8;
  BTreeForest forest(nf, p.stream.key_space, p.fanout,
                     [&m](int, std::uint64_t bytes) {
                       return m.allocate(bytes, 64);
                     });
  forest.preload_even();
  const auto stream = generate_stream(p.stream);

  XServe st;
  st.m = &m;
  st.forest = &forest;
  st.latches.reserve(static_cast<std::size_t>(nf));
  for (int f = 0; f < nf; ++f) {
    st.latches.push_back(std::make_unique<sim::Semaphore>(m.engine(), 1));
  }
  ServeResult r;
  st.tally = &r;

  auto d = driver(&st, &stream, p.stream.batch, p.threads, p.warmup);
  d.start();
  m.engine().run();
  finish_result(m.engine().now() - st.t0, forest, stream, &r);
  return r;
}

}  // namespace emusim::serve
