// Versioned machine-readable bench-result model.  Every bench/suite figure
// emits one of these as JSON; tools/shapecheck and tools/benchdiff load them
// back.
// The schema is documented in docs/RESULTS.md; bump kResultsSchemaVersion on
// incompatible changes.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "report/json.hpp"

namespace emusim::report {

inline constexpr int kResultsSchemaVersion = 1;

/// One measurement: y at sweep position x, plus named auxiliary metrics
/// (migrations, utilization, simulated milliseconds, ...).  `label` is set
/// for categorical sweeps (e.g. graph names) and then identifies the point;
/// numeric sweeps leave it empty and are identified by x.
struct ResultPoint {
  double x = 0.0;
  double y = 0.0;
  std::string label;
  std::vector<std::pair<std::string, double>> extra;

  const double* metric(const std::string& name) const;
};

struct ResultSeries {
  std::string name;
  std::vector<ResultPoint> points;

  /// Nearest-exact lookup by x (relative tolerance 1e-9) or by label.
  const ResultPoint* find(double x) const;
  const ResultPoint* find_label(const std::string& label) const;
};

struct BenchResult {
  int schema_version = kResultsSchemaVersion;
  std::string bench;   ///< binary name, e.g. "fig04_stream_single_nodelet"
  std::string x_axis;  ///< what x means, e.g. "threads"
  std::string y_axis;  ///< what y means, e.g. "mb_per_sec"
  bool quick = false;
  double wall_seconds = 0.0;  ///< host wall-clock for the whole run
  double sim_seconds = 0.0;   ///< total simulated time across all points
  std::string fingerprint;    ///< hash of bench + config (see fingerprint())
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<ResultSeries> series;
  /// Optional observability payload (docs/OBSERVABILITY.md): per-phase
  /// counter deltas and trace accounting, emitted by --counters/--trace.
  /// Additive — readers that predate it ignore the key, so the schema
  /// version is unchanged.  Null when the run was not observed.
  Json observe;

  const ResultSeries* find(const std::string& name) const;

  Json to_json() const;
  /// Unknown keys are ignored, so files that still carry retired fields
  /// (such as "reps", or the serving benches' latency histograms) load
  /// unchanged.
  static bool from_json(const Json& j, BenchResult* out, std::string* err);

  /// Serialize to `path`.  Returns false (with a message on stderr) on I/O
  /// failure — callers treat a requested-but-failed write as a hard error.
  bool save(const std::string& path) const;
  static bool load(const std::string& path, BenchResult* out,
                   std::string* err);
};

/// FNV-1a over the identity of a run: bench name, quick flag, and the
/// config key/value list.  Two results with different fingerprints were not
/// produced by the same experiment and must not be diffed silently.
std::string result_fingerprint(const BenchResult& r);

}  // namespace emusim::report
