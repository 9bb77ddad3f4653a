// The Emu machine model and threadlet runtime.
//
// A Machine assembles nodes, nodelets, Gossamer cores, NCDRAM channels, and
// migration engines per a SystemConfig.  Simulated threads ("threadlets")
// are C++20 coroutines driven by the DES engine; each carries a Context that
// tracks which nodelet it currently occupies and provides the timed
// operations of the programming model:
//
//   co_await ctx.issue(cycles)        — consume instruction issue bandwidth
//   co_await ctx.read_local(a, n)     — blocking load from the home channel
//   ctx.write_local(a, n)             — posted store
//   ctx.write_remote(nlet, a, n)      — memory-side remote write (no
//                                       migration; paper Section II)
//   co_await ctx.migrate_to(nlet)     — move this thread's context
//   co_await ctx.spawn(body)          — cilk_spawn (local; serial elision
//                                       when no threadlet slot is free)
//   co_await ctx.spawn_at(nlet, body) — remote spawn through the fabric
//   co_await ctx.sync()               — cilk_sync (also implicit at thread
//                                       exit)
//
// Modeling summary (see DESIGN.md §5): a Gossamer core is a FIFO issue
// server shared by its resident threadlets — with many threads repeatedly
// requesting small instruction batches, FIFO order approximates the
// hardware's round-robin issue.  Loads block the issuing threadlet (the
// cores are cache-less and in-order; multithreading, not ILP, covers
// latency).  A remote read migrates the thread: it releases its threadlet
// slot, queues on its node's migration engine (throughput cap + in-flight
// latency), and acquires a slot at the destination.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "emu/config.hpp"
#include "emu/runtime/footprint.hpp"
#include "mem/dram.hpp"
#include "sim/engine.hpp"
#include "sim/op.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/task.hpp"

namespace emusim::emu {

class Machine;
class Context;

/// Per-nodelet event counts, exposed for tests and reports.
struct NodeletStats {
  std::uint64_t reads = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t writes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t remote_writes_in = 0;  ///< memory-side writes landing here
  std::uint64_t atomics_in = 0;
  std::uint64_t thread_arrivals = 0;   ///< migrations + spawns landing here
  int resident = 0;
  int max_resident = 0;
};

class GossamerCore {
 public:
  explicit GossamerCore(sim::Engine& eng) : issue_(eng) {}
  sim::FifoServer& issue() { return issue_; }

 private:
  sim::FifoServer issue_;
};

class Nodelet {
 public:
  Nodelet(sim::Engine& eng, const SystemConfig& cfg, int index);

  int index() const { return index_; }
  mem::DramChannel& channel() { return channel_; }
  sim::Semaphore& slots() { return slots_; }
  GossamerCore& core(int i) { return cores_[static_cast<std::size_t>(i)]; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  /// Round-robin core assignment for a thread arriving at this nodelet.
  int assign_core() {
    const int c = rr_core_;
    rr_core_ = (rr_core_ + 1) % num_cores();
    return c;
  }

  /// Bump-allocate local memory; returns the local byte address.  Local
  /// addresses feed the channel's bank/row model, so allocation compactness
  /// affects row-buffer locality just as on the real machine.
  std::uint64_t allocate(std::uint64_t bytes, std::uint64_t align = 8);

  NodeletStats stats;

 private:
  int index_;
  std::vector<GossamerCore> cores_;
  mem::DramChannel channel_;
  sim::Semaphore slots_;
  int rr_core_ = 0;
  std::uint64_t brk_ = 0;
};

/// One node card: eight nodelets share a migration engine (the crossbar
/// between nodelets) and a RapidIO egress link toward other nodes.
class Node {
 public:
  Node(sim::Engine& eng, const SystemConfig& cfg)
      : migration_engine_(eng, cfg.migrations_per_sec, cfg.migration_latency),
        link_(eng) {}

  sim::RateGate& migration_engine() { return migration_engine_; }
  sim::FifoServer& link() { return link_; }

 private:
  sim::RateGate migration_engine_;
  sim::FifoServer link_;
};

struct MachineStats {
  std::uint64_t migrations = 0;
  std::uint64_t internode_migrations = 0;
  std::uint64_t spawns = 0;
  std::uint64_t remote_spawns = 0;
  std::uint64_t inline_spawns = 0;  ///< serial elisions (no slot free)
  std::uint64_t threads_completed = 0;
  sim::Log2Histogram migration_latency_ns;  ///< per-migration latency, ns

  /// Fold another stats block into this one (per-shard stats are merged in
  /// shard order after a sharded run).
  void merge_from(const MachineStats& o) {
    migrations += o.migrations;
    internode_migrations += o.internode_migrations;
    spawns += o.spawns;
    remote_spawns += o.remote_spawns;
    inline_spawns += o.inline_spawns;
    threads_completed += o.threads_completed;
    migration_latency_ns.merge(o.migration_latency_ns);
  }
};

namespace detail {
template <class F>
sim::Task thread_main(Machine* m, std::unique_ptr<Context> ctx, F body);
}

/// Thread-local machine lifecycle hook, used by the observability layer
/// (report/observe.hpp) to attach tracing and counter snapshots to every
/// Machine a bench constructs — kernels build their machines internally, so
/// flag-driven observation cannot reach them through call arguments.  The
/// hook is thread-local (not process-wide) so the parallel sweep runner
/// (bench/sweep_pool.hpp) can observe each worker's machines independently:
/// install on the thread that constructs the machines you want to see.
/// Observers must outlive every Machine constructed while installed.
class MachineObserver {
 public:
  virtual ~MachineObserver() = default;
  /// Called at the end of Machine construction (enable tracing here).
  virtual void machine_created(Machine&) {}
  /// Called at the start of Machine destruction, with the machine's final
  /// simulated time; all counters and the trace are still readable.
  virtual void machine_finished(Machine&, Time /*elapsed*/) {}
};

/// Install `obs` on the calling thread (nullptr to uninstall); returns the
/// thread's previous observer.
MachineObserver* set_machine_observer(MachineObserver* obs);
MachineObserver* machine_observer();

/// Exists only so the frozen simulator-speed benchmark (perfbench/main.cpp)
/// keeps compiling: every machine runs its shards serially on the thread
/// that calls run_root().  Checks `n >= 1`, ignores it and returns 1.
int set_engine_threads(int n);

/// Per-thread run telemetry, accumulated as machines are destroyed: the
/// engine-work and memory-footprint numbers the bench harness attaches to
/// sweep points (`engine_events`, `mem_peak_bytes` — see
/// bench/scale_chase.cpp).  Thread-local for the same reason as the
/// observer hook: each sweep worker's points must see only their own
/// machines.  Both fields are wall-clock-free and therefore deterministic
/// across --jobs.
struct RunTelemetry {
  /// Σ over destroyed machines of Σ over shards of events_processed().
  std::uint64_t engine_events = 0;
  /// Max over destroyed machines of the HostFootprint high-water mark.
  std::uint64_t peak_host_bytes = 0;
};

/// Return the calling thread's accumulated telemetry and reset it to zero.
/// Benches call this once per sweep point, after the point's machines die.
RunTelemetry take_run_telemetry();

class Machine {
 public:
  explicit Machine(const SystemConfig& cfg);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Shard 0's engine.  For single-node machines this is the one and only
  /// engine (the serial fast path); for sharded machines it is still the
  /// right clock to read after run_root, which synchronizes every shard to
  /// the global final time.
  sim::Engine& engine() { return set_.shard(0); }
  sim::EngineSet& engines() { return set_; }
  const SystemConfig& cfg() const { return cfg_; }
  Time cycle() const { return cycle_; }

  int num_nodelets() const { return cfg_.total_nodelets(); }
  Nodelet& nodelet(int i) { return nodelets_[static_cast<std::size_t>(i)]; }

  /// Host-side memory accounting shared with every allocation view built on
  /// this machine (emu/runtime/alloc.hpp).  The shared_ptr form lets views
  /// keep the counters alive regardless of view/machine destruction order.
  HostFootprint& host_footprint() { return *host_footprint_; }
  const HostFootprint& host_footprint() const { return *host_footprint_; }
  std::shared_ptr<HostFootprint> host_footprint_ptr() const {
    return host_footprint_;
  }

  int node_index_of(int nodelet) const {
    return nodelet / cfg_.nodelets_per_node;
  }
  Node& node(int i) { return nodes_[static_cast<std::size_t>(i)]; }
  Node& node_of_nodelet(int nlet) { return node(node_index_of(nlet)); }

  // --- sharding: one event-queue shard per node card (see sim/shard.hpp),
  // indexed by node_index_of() ---------------------------------------------

  int num_shards() const { return static_cast<int>(set_.shards()); }
  /// Minimum latency a post from `src_shard` to `dst_shard` must pay: zero
  /// same-shard, the inter-node latency (the window lookahead) otherwise.
  Time post_delay(int src_shard, int dst_shard) const {
    return src_shard == dst_shard ? 0 : cfg_.internode_latency;
  }
  sim::Engine& shard_engine(int s) {
    return set_.shard(static_cast<std::size_t>(s));
  }
  /// The stats block a shard's events mutate.  Single shard: the public
  /// `stats` itself (mid-run reads stay exact); sharded: a per-shard block,
  /// folded into `stats` at the end of every run_root.
  MachineStats& shard_stats(int s) {
    return shard_stats_.empty() ? stats
                                : shard_stats_[static_cast<std::size_t>(s)];
  }

  /// Post a cross-shard delivery (applied remote write/atomic, sync
  /// protocol message) into the windowed mailboxes; `when` must pay at
  /// least post_delay(src, dst) (= the window lookahead).
  void post_remote(int src_shard, int dst_shard, Time when, sim::SmallFn fn) {
    set_.post_call(static_cast<std::size_t>(src_shard),
                   static_cast<std::size_t>(dst_shard), when, std::move(fn));
  }
  /// Post a cross-shard coroutine resumption (fabric hop, sync wake).
  void post_wake(int src_shard, int dst_shard, Time when,
                 std::coroutine_handle<> h) {
    set_.post(static_cast<std::size_t>(src_shard),
              static_cast<std::size_t>(dst_shard), when, h);
  }

  /// Route a child-completion notification to the parent's home shard (the
  /// shard of its birth nodelet, which owns the sync bookkeeping).
  void notify_child_done(Context* parent, int child_shard);

  MachineStats stats;
  /// Optional event trace (see sim/trace.hpp); call trace.enable() before
  /// run_root to capture per-nodelet event streams.
  sim::Tracer trace;

  /// Record a trace event from shard `shard`.  Single shard: straight into
  /// the tracer (the serial path, byte-identical to the old engine).
  /// Sharded: into the shard's staging buffer, merged into the tracer at
  /// every window drain in canonical (t, shard) order.
  void record_trace(int shard, Time t, sim::TraceKind kind, std::int32_t a,
                    std::int32_t b = -1, std::uint64_t arg = 0,
                    std::int32_t tid = -1) {
    if (!trace.enabled()) return;
    if (trace_staging_.empty()) {
      trace.record(t, kind, a, b, arg, tid);
      return;
    }
    trace_staging_[static_cast<std::size_t>(shard)].push_back(
        sim::TraceRecord{t, kind, a, b, tid, arg});
  }

  /// Next simulated thread id.  Ids are striped by creation shard
  /// (counter * num_shards + shard) so allocation is shard-local and
  /// deterministic; a single shard degenerates to the old monotonic
  /// sequence.  Stamped into trace records so exports can follow one thread
  /// across nodelets.
  int alloc_thread_id(int shard) {
    return next_tid_[static_cast<std::size_t>(shard)]++ * num_shards() + shard;
  }

  /// Launch `body` as the root threadlet on nodelet 0 and run the
  /// simulation to completion.  Returns elapsed simulated time.
  /// `body` is any callable (Context&) -> sim::Op<>.
  ///
  /// Multi-node machines run their shards under conservative time windows
  /// with lookahead = the inter-node latency (the minimum latency of any
  /// cross-shard interaction).  Shard structure is fixed by the config, and
  /// cross-shard messages are merged in a canonical order.
  template <class F>
  Time run_root(F body) {
    const Time t0 = engine().now();
    start_fabric_thread(/*birth=*/0, /*src=*/0, /*parent=*/nullptr,
                        std::move(body), /*via_fabric=*/false);
    const Time t1 = set_.run(cfg_.internode_latency);
    fold_stats();
    return t1 - t0;
  }

  // --- internal spawn plumbing (used by Context) -------------------------

  /// Try to start a thread on `birth` with a pre-acquired slot (local
  /// cilk_spawn).  Returns false if no slot is free — the caller performs
  /// serial elision.
  template <class F>
  bool try_start_local_thread(int birth, Context* parent, const F& body);

  /// Start a thread whose spawn packet traverses the fabric (remote spawn)
  /// or that may wait for a slot (root).  Never fails; the thread queues on
  /// the destination's slot semaphore.
  template <class F>
  void start_fabric_thread(int birth, int src, Context* parent, F body,
                           bool via_fabric = true);

 private:
  template <class F>
  friend sim::Task detail::thread_main(Machine*, std::unique_ptr<Context>, F);

  /// Fold per-shard stats into the public `stats` (no-op for one shard).
  void fold_stats();
  /// Merge the window's per-shard trace staging into the tracer, ordered by
  /// (t, shard, intra-shard order).  Installed as the EngineSet window hook.
  void merge_trace_window();

  SystemConfig cfg_;
  sim::EngineSet set_;
  std::shared_ptr<HostFootprint> host_footprint_ =
      std::make_shared<HostFootprint>();
  Time cycle_;
  std::deque<Nodelet> nodelets_;
  std::deque<Node> nodes_;
  std::vector<int> next_tid_;               ///< per-shard tid counters
  std::vector<MachineStats> shard_stats_;   ///< empty when single shard
  std::vector<std::vector<sim::TraceRecord>> trace_staging_;  ///< ditto
};

/// Per-threadlet state and the timed-operation API.  Created by the spawn
/// machinery; kernels receive it by reference and must not store it beyond
/// the kernel's lifetime.
class Context {
 public:
  Context(Machine& m, Context* parent, int birth, bool via_fabric, int src,
          bool has_slot)
      : machine_(&m),
        parent_(parent),
        shard_(m.node_index_of(via_fabric ? src : birth)),
        home_shard_(m.node_index_of(birth)),
        tid_(m.alloc_thread_id(shard_)),
        birth_nodelet_(birth),
        src_nodelet_(src),
        via_fabric_(via_fabric),
        has_slot_at_birth_(has_slot) {}

  Machine& machine() { return *machine_; }
  /// The engine of the shard this thread currently executes on.
  sim::Engine& engine() {
    return machine_->engines().shard(static_cast<std::size_t>(shard_));
  }
  const SystemConfig& cfg() const { return machine_->cfg(); }
  int nodelet() const { return nodelet_; }
  int shard() const { return shard_; }
  int tid() const { return tid_; }

  /// Awaitable: execute `cycles` instructions on this thread's core.
  ///
  /// The Gossamer core is a fine-grained multithreaded (barrel) core: it
  /// rotates issue slots round-robin over its resident threadlets, so one
  /// thread's batch of k instructions takes ~k * resident cycles of wall
  /// time while the core itself retires work at full rate.  We model that
  /// by accounting the true work (k cycles) on the core's FIFO issue server
  /// — preserving aggregate issue bandwidth — and delaying this thread's
  /// resumption by the additional (resident-1) * k cycles it spends waiting
  /// for its rotation slots.
  auto issue(std::uint64_t cycles) {
    struct Awaiter {
      sim::FifoServer& srv;
      sim::Engine& eng;
      Time work;
      Time rotation_wait;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        const Time depart = srv.post(work);
        eng.schedule(depart + rotation_wait, h);
      }
      void await_resume() const noexcept {}
    };
    Nodelet& n = machine_->nodelet(nodelet_);
    const Time work = static_cast<Time>(cycles) * machine_->cycle();
    // Residents split across this nodelet's cores; each core rotates over
    // its own share.
    const int per_core =
        (n.stats.resident + n.num_cores() - 1) / n.num_cores();
    const int competitors = per_core > 1 ? per_core : 1;
    return Awaiter{n.core(core_).issue(), engine(), work,
                   work * (competitors - 1)};
  }

  /// Awaitable: blocking load of `bytes` at local address `addr` on the
  /// current nodelet's channel.  The caller must already be co-located with
  /// the data (migrate first; see load helpers in the views).
  auto read_local(std::uint64_t addr, std::uint32_t bytes) {
    Nodelet& n = machine_->nodelet(nodelet_);
    ++n.stats.reads;
    n.stats.read_bytes += bytes;
    machine_->record_trace(shard_, engine().now(), sim::TraceKind::mem_read,
                           nodelet_, -1, bytes, tid_);
    return n.channel().read(addr, bytes);
  }

  /// Posted store to the current nodelet (not on the critical path).
  void write_local(std::uint64_t addr, std::uint32_t bytes) {
    Nodelet& n = machine_->nodelet(nodelet_);
    ++n.stats.writes;
    n.stats.write_bytes += bytes;
    machine_->record_trace(shard_, engine().now(), sim::TraceKind::mem_write,
                           nodelet_, -1, bytes, tid_);
    n.channel().write(addr, bytes);
  }

  /// Memory-side remote write: the value travels to the remote nodelet's
  /// memory-side processor; the thread does not migrate and does not wait.
  /// Same-shard targets are applied immediately (the old direct path); a
  /// packet leaving the shard pays the inter-node latency and is applied by
  /// the owning shard on arrival, so no shard ever touches another's state.
  void write_remote(int nlet, std::uint64_t addr, std::uint32_t bytes) {
    const int ds = machine_->node_index_of(nlet);
    if (ds == shard_) {
      Nodelet& n = machine_->nodelet(nlet);
      ++n.stats.writes;
      ++n.stats.remote_writes_in;
      n.stats.write_bytes += bytes;
      machine_->record_trace(shard_, engine().now(), sim::TraceKind::mem_write,
                             nlet, nodelet_, bytes, tid_);
      n.channel().write(addr, bytes);
      return;
    }
    Machine* m = machine_;
    const std::int32_t from = nodelet_;
    const std::int32_t t = tid_;
    machine_->post_remote(
        shard_, ds, engine().now() + machine_->post_delay(shard_, ds),
        sim::SmallFn([m, nlet, from, addr, bytes, t] {
          Nodelet& n = m->nodelet(nlet);
          ++n.stats.writes;
          ++n.stats.remote_writes_in;
          n.stats.write_bytes += bytes;
          const int s = m->node_index_of(nlet);
          m->record_trace(s, m->shard_engine(s).now(),
                          sim::TraceKind::mem_write, nlet, from, bytes, t);
          n.channel().write(addr, bytes);
        }));
  }

  /// Memory-side remote atomic (e.g. remote add).  Posted; occupies the
  /// remote channel for a read-modify-write.
  void atomic_remote(int nlet, std::uint64_t addr) {
    atomic_remote(nlet, addr, [] {});
  }

  /// Memory-side remote atomic carrying its host-side effect: `apply` runs
  /// when the atomic is performed at the owning nodelet — immediately for a
  /// same-shard target (matching the old call-site ordering, where the
  /// caller mutated host memory before posting the atomic), at delivery on
  /// the owning shard otherwise.  Kernels whose host mutation targets
  /// remote striped data (GUPS xor, histogram bins, MTTKRP rank
  /// accumulations) must use this form: it is what keeps the mutation on
  /// the owning shard, at its simulated time, under the sharded engine.
  template <class Apply>
  void atomic_remote(int nlet, std::uint64_t addr, Apply apply) {
    const int ds = machine_->node_index_of(nlet);
    if (ds == shard_) {
      apply();
      Nodelet& n = machine_->nodelet(nlet);
      ++n.stats.atomics_in;
      machine_->record_trace(shard_, engine().now(),
                             sim::TraceKind::remote_atomic, nlet, nodelet_, 0,
                             tid_);
      n.channel().write(addr, 8);  // RMW occupies roughly one word access
      n.channel().write(addr, 8);
      return;
    }
    Machine* m = machine_;
    const std::int32_t from = nodelet_;
    const std::int32_t t = tid_;
    machine_->post_remote(
        shard_, ds, engine().now() + machine_->post_delay(shard_, ds),
        sim::SmallFn([m, nlet, from, addr, t,
                      apply = std::move(apply)]() mutable {
          apply();
          Nodelet& n = m->nodelet(nlet);
          ++n.stats.atomics_in;
          const int s = m->node_index_of(nlet);
          m->record_trace(s, m->shard_engine(s).now(),
                          sim::TraceKind::remote_atomic, nlet, from, 0, t);
          n.channel().write(addr, 8);
          n.channel().write(addr, 8);
        }));
  }

  /// Memory-side remote atomic *with* a returned value (fetch-add style):
  /// the request travels to the remote memory-side processor, performs the
  /// read-modify-write there, and the thread blocks for the round trip —
  /// still far cheaper than migrating there and back.
  sim::Op<> atomic_fetch_remote(int nlet, std::uint64_t addr);

  /// Migrate this thread to nodelet `dest` (no-op when already there).
  sim::Op<> migrate_to(int dest);

  /// cilk_spawn: start `body` as a new threadlet on the current nodelet.
  /// When every threadlet slot is taken the spawn elides to a serial call,
  /// matching Cilk semantics (and avoiding slot-exhaustion deadlock).
  template <class F>
  sim::Op<> spawn(F body) {
    co_await issue(static_cast<std::uint64_t>(cfg().spawn_issue_cycles));
    if (machine_->try_start_local_thread(nodelet_, this, body)) co_return;
    ++machine_->shard_stats(shard_).inline_spawns;
    co_await issue(static_cast<std::uint64_t>(cfg().thread_startup_cycles));
    co_await body(*this);
  }

  /// Remote spawn: the spawn packet traverses the migration fabric and the
  /// child begins life on nodelet `dest`.
  template <class F>
  sim::Op<> spawn_at(int dest, F body) {
    co_await issue(static_cast<std::uint64_t>(cfg().spawn_issue_cycles));
    machine_->start_fabric_thread(dest, nodelet_, this, std::move(body));
  }

  /// cilk_sync: wait until all threads spawned by this context finish.
  ///
  /// Bookkeeping ownership under the sharded engine: `spawned_` is written
  /// only by this thread itself (spawning is a sequential act of the
  /// parent); `completed_` and the waiter registration are owned by the
  /// *home shard* — the shard of the birth nodelet — to which every child
  /// completion is routed.  A context syncing away from its home shard
  /// therefore cannot read `completed_` directly: it sends a registration
  /// message home and is woken by a message back (one fabric transit each
  /// way — post_delay between the shards — the price of carrying sync
  /// state across the fabric).  The common cases stay fast: a leaf thread
  /// (nothing spawned) is ready immediately, and a parent syncing on its
  /// home shard checks directly, exactly like the serial engine.
  auto sync() {
    struct Awaiter {
      Context& ctx;
      bool await_ready() const noexcept {
        if (ctx.spawned_ == 0) return true;  // leaf: nothing to wait for
        if (ctx.shard_ == ctx.home_shard_) {
          return ctx.completed_ == ctx.spawned_;
        }
        return false;  // off home: must round-trip to the owning shard
      }
      void await_suspend(std::coroutine_handle<> h) {
        Context& c = ctx;
        if (c.shard_ == c.home_shard_) {
          c.waiter_shard_ = c.shard_;
          c.sync_waiter_ = h;
          return;
        }
        Context* p = &c;
        const int cur = c.shard_;
        c.machine_->post_remote(
            cur, c.home_shard_,
            c.engine().now() + c.machine_->post_delay(cur, c.home_shard_),
            sim::SmallFn([p, cur, h] {  // runs on the home shard
              if (p->completed_ == p->spawned_) {
                Machine* m = p->machine_;
                m->post_wake(p->home_shard_, cur,
                             m->shard_engine(p->home_shard_).now() +
                                 m->post_delay(p->home_shard_, cur),
                             h);
              } else {
                p->waiter_shard_ = cur;
                p->sync_waiter_ = h;
              }
            }));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Children spawned and not yet known complete.  Exact on the home shard
  /// (and always post-run); elsewhere mid-run it can lag by in-flight
  /// completion messages.
  int live_children() const { return spawned_ - completed_; }

 private:
  template <class F>
  friend sim::Task detail::thread_main(Machine*, std::unique_ptr<Context>, F);
  friend class Machine;

  /// Awaitable: carry this thread across the fabric to `dest_shard`,
  /// arriving one `latency` later.  The continuation rides the cross-shard
  /// mailbox and resumes on the destination shard's queue; `shard_` is
  /// retargeted at suspension so everything after the hop charges the
  /// destination.  (Same-shard hops — possible only when the machine has a
  /// single shard — degenerate to a plain sleep.)
  auto fabric_hop(int dest_shard, Time latency) {
    struct Awaiter {
      Context& ctx;
      int dst;
      Time latency;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        const int src = ctx.shard_;
        sim::Engine& src_eng = ctx.machine_->shard_engine(src);
        if (dst == src) {
          src_eng.schedule_in(latency, h);
          return;
        }
        const Time when = src_eng.now() + latency;
        ctx.shard_ = dst;
        ctx.machine_->post_wake(src, dst, when, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dest_shard, latency};
  }

  void arrive(int nlet) {
    nodelet_ = nlet;
    shard_ = machine_->node_index_of(nlet);
    Nodelet& n = machine_->nodelet(nlet);
    core_ = n.assign_core();
    ++n.stats.thread_arrivals;
    ++n.stats.resident;
    n.stats.max_resident = std::max(n.stats.max_resident, n.stats.resident);
  }

  void depart() {
    Nodelet& n = machine_->nodelet(nodelet_);
    --n.stats.resident;
    n.slots().release();
  }

  /// One child finished.  Always runs on the home shard (routed there by
  /// Machine::notify_child_done), which owns `completed_` and the waiter.
  void note_child_done() {
    ++completed_;
    if (sync_waiter_ && completed_ == spawned_) {
      auto h = std::exchange(sync_waiter_, {});
      if (waiter_shard_ == home_shard_) {
        // Sync wakeups are same-timestamp by construction: use the engine's
        // zero-delay FIFO lane so deep spawn trees never churn the heap.
        machine_->shard_engine(home_shard_).schedule_now(h);
      } else {
        machine_->post_wake(home_shard_, waiter_shard_,
                            machine_->shard_engine(home_shard_).now() +
                                machine_->post_delay(home_shard_, waiter_shard_),
                            h);
      }
    }
  }

  Machine* machine_;
  Context* parent_;
  int shard_;       ///< shard this thread currently executes on
  int home_shard_;  ///< shard of the birth nodelet; owns sync bookkeeping
  int tid_;
  int nodelet_ = -1;
  int core_ = 0;
  int birth_nodelet_;
  int src_nodelet_;
  bool via_fabric_;
  bool has_slot_at_birth_;
  int spawned_ = 0;    ///< children spawned; written only by this thread
  int completed_ = 0;  ///< children completed; written only on home shard
  int waiter_shard_ = -1;  ///< shard the sync waiter suspended on
  std::coroutine_handle<> sync_waiter_;
};

namespace detail {

/// The wrapper coroutine that hosts one threadlet: deliver the spawn packet,
/// take a slot, pay startup cost, run the kernel body, implicit cilk_sync,
/// release the slot, and notify the parent.
template <class F>
sim::Task thread_main(Machine* m, std::unique_ptr<Context> ctx, F body) {
  Context& c = *ctx;
  if (c.via_fabric_) {
    const int src_node = m->node_index_of(c.src_nodelet_);
    const int dst_node = m->node_index_of(c.birth_nodelet_);
    co_await m->node(src_node).migration_engine().pass();
    if (src_node != dst_node) {
      const Time wire = transfer_time(
          static_cast<double>(m->cfg().thread_context_bytes),
          m->cfg().internode_bytes_per_sec);
      co_await m->node(src_node).link().access(wire);
      co_await c.fabric_hop(dst_node, m->cfg().internode_latency);
      co_await m->node(dst_node).migration_engine().pass();
    }
  }
  if (!c.has_slot_at_birth_) {
    co_await m->nodelet(c.birth_nodelet_).slots().acquire();
  }
  c.arrive(c.birth_nodelet_);
  m->record_trace(c.shard_, c.engine().now(), sim::TraceKind::thread_start,
                  c.birth_nodelet_, -1, 0, c.tid_);
  co_await c.issue(static_cast<std::uint64_t>(m->cfg().thread_startup_cycles));
  co_await body(c);
  co_await c.sync();  // implicit cilk_sync at thread exit
  m->record_trace(c.shard_, c.engine().now(), sim::TraceKind::thread_end,
                  c.nodelet_, -1, 0, c.tid_);
  c.depart();
  // Completion accounting happens here, inside the coroutine, where the
  // final shard is known: the parent notification must be routed to the
  // parent's home shard while this context is still alive.
  ++m->shard_stats(c.shard_).threads_completed;
  if (c.parent_ != nullptr) m->notify_child_done(c.parent_, c.shard_);
}

}  // namespace detail

template <class F>
bool Machine::try_start_local_thread(int birth, Context* parent,
                                     const F& body) {
  if (!nodelet(birth).slots().try_acquire()) return false;
  // A local spawn is always issued by the parent on the birth nodelet's
  // shard: every touch below (slots, stats, trace, the child's first steps)
  // is shard-local.
  const int cs = node_index_of(birth);
  ++shard_stats(cs).spawns;
  if (parent) ++parent->spawned_;
  auto ctx = std::make_unique<Context>(*this, parent, birth,
                                       /*via_fabric=*/false, birth,
                                       /*has_slot=*/true);
  record_trace(cs, shard_engine(cs).now(), sim::TraceKind::thread_spawn, birth,
               parent ? parent->nodelet_ : -1, 0, ctx->tid_);
  auto task = detail::thread_main(this, std::move(ctx), body);
  task.start();  // parent notification happens inside thread_main
  return true;
}

template <class F>
void Machine::start_fabric_thread(int birth, int src, Context* parent, F body,
                                  bool via_fabric) {
  // The spawn packet is issued where the parent currently executes: the
  // shard of `src` (nodelet 0 / shard 0 for the root).
  const int cs = node_index_of(src);
  ++shard_stats(cs).spawns;
  if (via_fabric) ++shard_stats(cs).remote_spawns;
  if (parent) ++parent->spawned_;
  auto ctx = std::make_unique<Context>(*this, parent, birth, via_fabric, src,
                                       /*has_slot=*/false);
  record_trace(cs, shard_engine(cs).now(), sim::TraceKind::thread_spawn, birth,
               parent ? parent->nodelet_ : -1, 0, ctx->tid_);
  auto task = detail::thread_main(this, std::move(ctx), std::move(body));
  task.start();  // parent notification happens inside thread_main
}

}  // namespace emusim::emu
