#include "emu/machine.hpp"

#include <algorithm>

namespace emusim::emu {

namespace {
// Thread-local: the parallel sweep runner (bench/sweep_pool.hpp) installs a
// per-job observer on its worker thread, so observation never crosses
// threads and workers cannot see each other's machines.
thread_local MachineObserver* g_machine_observer = nullptr;

// Per-thread run telemetry (see RunTelemetry in the header): machines fold
// their engine event counts and footprint peak in at destruction; benches
// consume with take_run_telemetry() after a point's machines are gone.
thread_local RunTelemetry g_run_telemetry;
}  // namespace

MachineObserver* set_machine_observer(MachineObserver* obs) {
  MachineObserver* prev = g_machine_observer;
  g_machine_observer = obs;
  return prev;
}

MachineObserver* machine_observer() { return g_machine_observer; }

int set_engine_threads(int n) {
  EMUSIM_CHECK(n >= 1);
  return 1;
}

RunTelemetry take_run_telemetry() {
  const RunTelemetry r = g_run_telemetry;
  g_run_telemetry = RunTelemetry{};
  return r;
}

Nodelet::Nodelet(sim::Engine& eng, const SystemConfig& cfg, int index)
    : index_(index),
      channel_(eng, cfg.dram),
      slots_(eng, cfg.slots_per_nodelet()) {
  cores_.reserve(static_cast<std::size_t>(cfg.gcs_per_nodelet));
  for (int i = 0; i < cfg.gcs_per_nodelet; ++i) cores_.emplace_back(eng);
}

std::uint64_t Nodelet::allocate(std::uint64_t bytes, std::uint64_t align) {
  EMUSIM_CHECK(align > 0 && (align & (align - 1)) == 0);
  brk_ = (brk_ + align - 1) & ~(align - 1);
  const std::uint64_t addr = brk_;
  brk_ += bytes;
  return addr;
}

Machine::Machine(const SystemConfig& cfg)
    : cfg_(cfg),
      set_(static_cast<std::size_t>(cfg.nodes > 0 ? cfg.nodes : 1)),
      cycle_(cfg.cycle()),
      next_tid_(set_.shards(), 0) {
  cfg.validate();
  if (num_shards() > 1) {
    set_.set_window_hook(sim::SmallFn([this] { flush_trace_window(); }));
  }
  // Every node (and each of its nodelets) binds to its shard's engine: all
  // of a shard's resources schedule on the shard's own queue, never on a
  // neighbor's.
  for (int n = 0; n < cfg.nodes; ++n) {
    nodes_.emplace_back(shard_engine(n), cfg_);
  }
  for (int i = 0; i < cfg.total_nodelets(); ++i) {
    nodelets_.emplace_back(shard_engine(node_index_of(i)), cfg_, i);
  }
  if (g_machine_observer != nullptr) g_machine_observer->machine_created(*this);
}

Machine::~Machine() {
  // Counters, stats, and the trace are still intact here; the observer gets
  // the machine's final simulated time as the run's elapsed time (every
  // shard clock reads the same global final time after run_root).
  if (g_machine_observer != nullptr) {
    g_machine_observer->machine_finished(*this, engine().now());
  }
  for (int s = 0; s < num_shards(); ++s) {
    g_run_telemetry.engine_events += shard_engine(s).events_processed();
  }
  if (host_footprint_->peak() > g_run_telemetry.peak_host_bytes) {
    g_run_telemetry.peak_host_bytes = host_footprint_->peak();
  }
}

void Machine::append_trace(Time t, sim::TraceKind kind, std::int32_t a,
                           std::int32_t b, std::uint64_t arg,
                           std::int32_t tid) {
  if (num_shards() == 1) {
    trace.record(t, kind, a, b, arg, tid);
    return;
  }
  trace_window_.push_back(sim::TraceRecord{t, kind, a, b, tid, arg});
}

void Machine::flush_trace_window() {
  // Shards run their windows in index order and each records at its own
  // non-decreasing now(), so the buffer holds the window's records shard by
  // shard, each shard's in time order.  A stable sort by t therefore yields
  // (t, shard, intra-shard order); windows advance monotonically, so the
  // tracer's stream does too.
  std::stable_sort(trace_window_.begin(), trace_window_.end(),
                   [](const sim::TraceRecord& x, const sim::TraceRecord& y) {
                     return x.t < y.t;
                   });
  for (const sim::TraceRecord& r : trace_window_) {
    trace.record(r.t, r.kind, r.a, r.b, r.arg, r.tid);
  }
  trace_window_.clear();
}

void Machine::notify_child_done(Context* parent, int child_shard) {
  const int home = parent->home_shard_;
  if (child_shard == home) {
    parent->note_child_done();
    return;
  }
  Context* p = parent;
  post_remote(home,
              shard_engine(child_shard).now() + post_delay(child_shard, home),
              sim::SmallFn([p] { p->note_child_done(); }));
}

sim::Op<> Context::atomic_fetch_remote(int nlet, std::uint64_t addr) {
  Machine& m = *machine_;
  const int ds = m.node_index_of(nlet);
  if (ds == shard_) {
    Nodelet& n = m.nodelet(nlet);
    ++n.stats.atomics_in;
    m.record_trace(engine().now(), sim::TraceKind::remote_atomic, nlet,
                   nodelet_, 0, tid_);
    // Request/response each ride the nodelet fabric (one intra-node
    // crossbar hop each way) around the remote RMW.
    const Time hop = m.cfg().intranode_hop();
    co_await engine().sleep(hop);
    n.channel().write(addr, 8);  // the remote read-modify-write
    n.channel().write(addr, 8);
    co_await engine().sleep(hop);
    co_return;
  }
  // Off-shard target: request and response each pay the inter-node latency
  // and the RMW (stats, trace, channel occupancy) executes on the owning
  // shard at delivery; the issuing thread stays put and blocks for the
  // round trip.
  struct FetchAwaiter {
    Context& ctx;
    int nlet;
    std::uint64_t addr;
    int dst_shard;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      Machine* m = ctx.machine_;
      const int src_shard = ctx.shard_;
      const std::int32_t from = ctx.nodelet_;
      const std::int32_t t = ctx.tid_;
      const int nl = nlet;
      const std::uint64_t a = addr;
      const int ds = dst_shard;
      m->post_remote(
          ds, ctx.engine().now() + m->post_delay(src_shard, ds),
          sim::SmallFn([m, nl, from, a, t, src_shard, ds, h] {
            Nodelet& n = m->nodelet(nl);
            ++n.stats.atomics_in;
            m->record_trace(m->shard_engine(ds).now(),
                            sim::TraceKind::remote_atomic, nl, from, 0, t);
            n.channel().write(a, 8);
            n.channel().write(a, 8);
            m->post_wake(src_shard,
                         m->shard_engine(ds).now() +
                             m->post_delay(ds, src_shard),
                         h);
          }));
    }
    void await_resume() const noexcept {}
  };
  co_await FetchAwaiter{*this, nlet, addr, ds};
}

sim::Op<> Context::migrate_to(int dest) {
  if (dest == nodelet_) co_return;
  const Time t0 = engine().now();
  Machine& m = *machine_;
  const int src = nodelet_;  // depart()/arrive() rewrite nodelet_
  const int src_node = m.node_index_of(src);
  const int dst_node = m.node_index_of(dest);

  depart();  // the context leaves the source threadlet slot immediately
  ++m.stats.migrations;
  m.record_trace(t0, sim::TraceKind::migrate_out, src, dest, 0, tid_);

  co_await m.node(src_node).migration_engine().pass();
  if (src_node != dst_node) {
    ++m.stats.internode_migrations;
    const Time wire =
        transfer_time(static_cast<double>(m.cfg().thread_context_bytes),
                      m.cfg().internode_bytes_per_sec);
    co_await m.node(src_node).link().access(wire);
    co_await fabric_hop(dst_node, m.cfg().internode_latency);
    co_await m.node(dst_node).migration_engine().pass();
  }
  co_await m.nodelet(dest).slots().acquire();
  arrive(dest);
  // b is the source *nodelet* (the header's contract); this used to record
  // the source node index, which collapses to 0 on any single-node config.
  m.record_trace(engine().now(), sim::TraceKind::migrate_in, dest, src, 0,
                 tid_);
  m.stats.migration_latency_ns.add(
      static_cast<std::uint64_t>((engine().now() - t0) / kNanosecond));
}

}  // namespace emusim::emu
