// Regression comparison between two sets of bench results (a committed
// baseline and a fresh run).  The simulator is deterministic, so the
// primary y metric (simulated bandwidth for nearly every bench) reproduces
// bit-for-bit on a correct build; the tolerance exists to absorb deliberate
// small recalibrations, not measurement noise.  tools/benchdiff is the CLI.
#pragma once

#include <string>
#include <vector>

#include "report/results.hpp"

namespace emusim::report {

struct DiffOptions {
  /// Maximum tolerated drop of the primary metric, percent (y lower than
  /// baseline by more than this fails).  Improvements never fail.
  double max_regress_pct = 5.0;
  /// When false, benches/series/points present in the baseline but missing
  /// from the candidate are only warnings rather than failures.
  bool require_coverage = true;
};

struct DiffEntry {
  std::string bench;
  std::string series;
  double x = 0.0;
  std::string label;
  /// Empty for the primary y; otherwise the name of the extra metric this
  /// entry compares (currently the lat_* tail-latency summaries).
  std::string metric;
  double base_y = 0.0;
  double cand_y = 0.0;
  double delta_pct = 0.0;  ///< (cand - base) / base * 100
  bool regression = false;
  /// True for tail-latency extras (lat_* metrics on serving benches):
  /// compared and printed so a PR's percentile shifts are visible in the
  /// diff, but never gated, by policy rather than nondeterminism.
  /// Percentiles move with deliberate latency-model recalibration and
  /// histogram bucket resolution; the throughput y and the shape gates
  /// (tools/shapes) are the pass/fail line.
  bool report_only = false;
};

struct DiffReport {
  std::vector<DiffEntry> entries;       ///< every compared point
  std::vector<std::string> problems;    ///< missing coverage, mismatches
  int regressions = 0;
  int improvements = 0;  ///< points that moved up by more than the tolerance

  bool ok(const DiffOptions& opt) const {
    return regressions == 0 && (!opt.require_coverage || problems.empty());
  }
};

/// Compare candidate against baseline.  Every (bench, series, point) in the
/// baseline must exist in the candidate (else a problem is recorded);
/// candidate-only data is ignored — adding benches or sweep points is never
/// a regression.  Fingerprints must match per bench: results produced from
/// different configs are a problem, not a comparison.
DiffReport diff_results(const std::vector<BenchResult>& baseline,
                        const std::vector<BenchResult>& candidate,
                        const DiffOptions& opt);

}  // namespace emusim::report
