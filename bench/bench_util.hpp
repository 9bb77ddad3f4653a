// Shared harness for the figure-regeneration benches, which bench/suite
// runs as registered figure functions.  Every figure takes the same flags,
// registers its series with the harness, and gets table printing and
// schema-versioned JSON (docs/RESULTS.md) for free:
//
//   --json <dir>     write each figure's machine-readable result to
//                    <dir>/<figure>.json (consumed by tools/shapecheck and
//                    tools/benchdiff)
//   --quick          smaller problem sizes / fewer sweep points (CI mode)
//   --filter <str>   run only series whose name contains <str>
//   --jobs <n>       run sweep points on n worker threads (default: the
//                    host's hardware concurrency).  Output is byte-identical
//                    to --jobs 1 apart from wall-clock fields: points merge
//                    into the result in submission order regardless of
//                    completion order (bench/sweep_pool.hpp)
//   --trace <path>   export the newest simulated run as Chrome/Perfetto
//                    trace-event JSON (load at https://ui.perfetto.dev or
//                    summarize with tools/traceview); one figure only
//   --trace-cap <n>  trace ring-buffer capacity in records (default 65536;
//                    long runs keep the newest n events)
//   --counters       embed per-phase counter deltas (per-nodelet traffic,
//                    migration matrix, row-hit rate) in the result JSON
//   --help           usage
//
// Value flags accept both "--flag value" and "--flag=value".  Unknown flags
// and flags missing their argument are usage errors: the suite prints usage
// and exits with status 2.  See docs/OBSERVABILITY.md for the
// --trace/--counters output formats and truncation guarantees.
//
// Every point is a deterministic simulated quantity recorded once: a second
// add at the same (series, x) or (series, label) is a bench bug and fails
// the run.  Host time is measured by perfbench/, not here.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "report/results.hpp"

namespace emusim::emu {
struct SystemConfig;
}
namespace emusim::xeon {
struct SystemConfig;
}
namespace emusim::report {
class BenchObserver;
}
namespace emusim::serve {
class PhasedLatency;
}

namespace emusim::bench {

struct Options {
  std::string json_dir;
  bool quick = false;
  std::string filter;
  /// Worker threads for the sweep pool; 0 = auto (hardware_concurrency).
  /// Deliberately excluded from the config fingerprint: any --jobs value
  /// produces the same simulated results.
  int jobs = 0;
  std::string trace_path;
  int trace_cap = 1 << 16;
  bool counters = false;
  bool help = false;
};

std::string usage(const std::string& program);

/// Parse argv.  Returns false with a diagnostic in `*err` on unknown flags,
/// missing arguments, or malformed values — callers must treat that as a
/// usage error, not a best-effort run.  Bare (non-flag) arguments go to
/// `*positional`; without one they are errors too.
bool parse_options(int argc, char** argv, Options* out, std::string* err,
                   std::vector<std::string>* positional = nullptr);

/// An observer configured from --trace/--counters, or nullptr when neither
/// flag is set.
std::unique_ptr<report::BenchObserver> make_observer(const Options& opt);

/// One figure's run: collects series points, and on done() prints
/// per-table pivots and writes JSON.
class Harness {
 public:
  Harness(std::string bench_name, Options opt);
  ~Harness();

  bool quick() const { return opt_.quick; }

  /// Axis names recorded in the JSON schema (e.g. "threads", "mb_per_sec").
  void axes(std::string x, std::string y);

  /// Record one config fingerprint key (machine parameters, problem sizes).
  void config(const std::string& key, std::string value);
  void config(const std::string& key, long long value);

  /// Series-name filter from --filter (substring match; empty = all).
  bool enabled(const std::string& series) const;

  /// Start (or re-select) a display table; subsequent series registrations
  /// attach to it.  `precision` is the decimal places for y cells.
  void table(const std::string& title, int precision = 1);

  /// Add one measurement.  A second point at an equal (series, x) fails the
  /// run (see fail()).  An extra named "sim_ms" also accumulates into the
  /// result's sim_seconds.
  void add(const std::string& series, double x, double y,
           std::vector<std::pair<std::string, double>> extra = {});

  /// Categorical variant: the point is identified by `label`; `x` is its
  /// ordinal position (used only for display ordering).  A second point
  /// with an equal (series, label) fails the run.
  void add_labeled(const std::string& series, const std::string& label,
                   double x, double y,
                   std::vector<std::pair<std::string, double>> extra = {});

  /// Print FAIL: <msg> and exit(1).  Benches call this when a kernel's
  /// self-verification fails — results after a failed run are meaningless.
  [[noreturn]] void fail(const std::string& msg);

  /// Print tables, write JSON as requested.  Returns the process exit code:
  /// 0, or 1 when a requested output file could not be written.
  int done();

  const report::BenchResult& result() const { return result_; }

  /// The --trace/--counters observer, or nullptr when neither flag is set.
  /// SweepPool folds per-job observers into this one at the merge barrier.
  report::BenchObserver* observer() { return observer_.get(); }

 private:
  struct TableGroup {
    std::string title;
    int precision = 1;
    std::vector<std::size_t> series_idx;  ///< indices into result_.series
  };

  report::ResultSeries& series_slot(const std::string& name);
  void print_tables() const;
  /// Label counter deltas from runs since the last add() with this point's
  /// phase name and collect them for the result's observe blob.
  void absorb_pending_counters(const std::string& series,
                               const std::string& phase_key);
  bool finish_observe();

  std::string name_;
  Options opt_;
  report::BenchResult result_;
  std::vector<TableGroup> tables_;
  std::size_t current_table_ = 0;
  double start_wall_ = 0.0;
  /// Installed when --trace/--counters is active (docs/OBSERVABILITY.md).
  std::unique_ptr<report::BenchObserver> observer_;
  report::Json observe_counters_;  ///< array of labeled per-phase deltas
};

/// Record a machine config into the harness fingerprint (prefix
/// distinguishes multiple configs in one bench, e.g. "hw." vs "sim.").
void record_config(Harness& h, const emu::SystemConfig& cfg,
                   const std::string& prefix = "");
void record_config(Harness& h, const xeon::SystemConfig& cfg,
                   const std::string& prefix = "");

/// Append one "lat_<phase>_p99_us" point extra per phase of `lat` that
/// recorded at least one sample, in phase order.  tools/benchdiff reports
/// them like the other lat_* extras.
void add_phase_p99s(const serve::PhasedLatency& lat,
                    std::vector<std::pair<std::string, double>>* extra);

}  // namespace emusim::bench
