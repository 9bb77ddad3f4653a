// Observability layer: Perfetto/Chrome trace export, phase-scoped counter
// snapshots, and the machine-lifecycle observer that wires both into the
// bench harness (docs/OBSERVABILITY.md).
//
// The paper's analysis leans on the vendor simulator's per-nodelet event
// counters (§III-B) — thread spawns, migrations, memory operations — to
// explain *why* a bandwidth curve has its shape.  This layer makes the
// same story inspectable for every bench run:
//
//   * write_perfetto_trace() renders a sim::Tracer stream as trace-event
//     JSON loadable in https://ui.perfetto.dev (thread residency slices on
//     per-nodelet tracks, migration flow arrows, counter tracks for
//     resident threads and channel byte traffic).
//   * BenchObserver implements emu::MachineObserver for the harness's
//     --trace/--counters flags: kernels construct machines internally, so
//     observation attaches at machine construction, not call sites.
//
// Truncation guarantee: every export produced here carries the trace's
// dropped/truncated accounting — an aggregation over a truncated trace is
// a lower bound and is always labeled as one.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "emu/counters.hpp"
#include "report/json.hpp"
#include "sim/trace.hpp"

namespace emusim::report {

/// What the Perfetto writer retained and lost, mirrored into the file's
/// "otherData.emusim" block so tools/traceview can report it offline.
struct TraceAccounting {
  std::size_t records = 0;   ///< records exported
  std::uint64_t dropped = 0; ///< records the tracer lost before export
  bool truncated = false;
};

TraceAccounting trace_accounting(const sim::Tracer& t);
Json to_json(const TraceAccounting& a);

/// Stream `t`'s records to `path` as Chrome/Perfetto trace-event JSON.
/// Returns false with a message in `*err` on I/O failure.
bool write_perfetto_trace(const sim::Tracer& t, int num_nodelets,
                          const std::string& path, std::string* err);

/// Counter-delta JSON: machine totals, per-nodelet rows (arrivals, traffic,
/// row-hit rate, channel utilization), migration matrix, truncation flag.
Json to_json(const emu::CounterDelta& d);

/// Machine observer behind the harness's --trace/--counters flags.
/// Installs itself process-wide on construction (restoring the previous
/// observer on destruction), enables ring-buffered tracing on every machine
/// a bench constructs, and keeps (a) one whole-run counter delta per
/// machine and (b) the newest completed machine's trace for export.
class BenchObserver final : public emu::MachineObserver {
 public:
  struct Options {
    bool counters = false;        ///< collect per-run counter deltas
    std::string trace_path;       ///< non-empty: export Perfetto JSON here
    std::size_t trace_capacity = std::size_t{1} << 16;  ///< ring records
  };

  explicit BenchObserver(Options opt);
  ~BenchObserver() override;
  BenchObserver(const BenchObserver&) = delete;
  BenchObserver& operator=(const BenchObserver&) = delete;

  void machine_created(emu::Machine& m) override;
  void machine_finished(emu::Machine& m, Time elapsed) override;

  bool counters() const { return opt_.counters; }
  bool tracing() const { return !opt_.trace_path.empty(); }
  int runs() const { return runs_; }

  /// Whole-run counter deltas (as JSON) for machines finished since the
  /// last take, oldest first.  The caller labels them with phase names.
  std::vector<Json> take_pending_counters();

  /// Merge support for the parallel sweep runner (bench/sweep_pool.hpp):
  /// each job runs under its own thread-local observer, and the pool folds
  /// those observers into the main-thread one in submission order, which
  /// reproduces the serial fold exactly.

  /// Append one counter-delta JSON as if a machine had just finished here.
  void inject_pending(Json delta);
  /// Fold another observer's trace: `runs` machine runs completed under it,
  /// and `t` is the busiest of them (empty when it saw no traced machine,
  /// signalled by num_nodelets == 0, in which case only `runs` is counted).
  /// Same busiest-wins / ties-to-newer rule as machine_finished().
  void offer_trace(sim::Tracer t, int num_nodelets, int runs);
  /// Move out the retained busiest trace (for handing to offer_trace()).
  sim::Tracer take_trace() { return std::move(last_trace_); }
  int last_num_nodelets() const { return last_num_nodelets_; }

  /// Export the newest completed machine's trace to opt_.trace_path.
  /// False (with *err) on I/O failure or when no machine ran.
  bool write_trace(std::string* err) const;

  /// Accounting for the trace write_trace() would export.
  TraceAccounting last_trace_accounting() const;

 private:
  Options opt_;
  emu::MachineObserver* prev_ = nullptr;
  std::vector<std::pair<emu::Machine*, emu::CounterSnapshot>> starts_;
  sim::Tracer last_trace_;
  int last_num_nodelets_ = 0;
  int runs_ = 0;
  std::vector<Json> pending_;
};

}  // namespace emusim::report
