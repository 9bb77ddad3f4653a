// benchdiff — compare two sets of bench result JSONs and fail on
// regressions of the primary metric beyond a tolerance.  CI diffs a PR's
// --quick run against the committed baseline under results/quick/.
//
//   benchdiff --baseline <file-or-dir> --candidate <file-or-dir>
//             [--tolerance <pct>] [--no-coverage] [--verbose]
//
// The simulator is deterministic, so on an unchanged build every simulated
// metric reproduces exactly; the default 5% tolerance absorbs deliberate
// recalibration, not noise.  Baseline coverage is required by default:
// every baseline point must exist in the candidate (dropping a bench or a
// sweep point is itself a regression).  Candidate-only data is ignored.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "report/diff.hpp"
#include "report/results.hpp"

namespace fs = std::filesystem;
using emusim::report::BenchResult;
using emusim::report::DiffOptions;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline <file-or-dir> --candidate <file-or-dir>\n"
               "          [--tolerance <pct>] [--no-coverage] [--verbose]\n",
               argv0);
  return 2;
}

std::vector<BenchResult> load_results(const std::string& path, bool* ok) {
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const auto& e : fs::directory_iterator(path, ec)) {
      if (e.path().extension() == ".json") files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
  } else if (fs::exists(path, ec)) {
    files.push_back(path);
  }
  if (files.empty()) {
    std::fprintf(stderr, "benchdiff: no result files at %s\n", path.c_str());
    *ok = false;
    return {};
  }
  std::vector<BenchResult> out;
  for (const auto& f : files) {
    BenchResult r;
    std::string err;
    if (!BenchResult::load(f, &r, &err)) {
      // load() errors already start with the file name.
      std::fprintf(stderr, "benchdiff: %s\n", err.c_str());
      *ok = false;
      return {};
    }
    out.push_back(std::move(r));
  }
  *ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, cand_path;
  DiffOptions opt;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      base_path = argv[++i];
    } else if (arg == "--candidate" && i + 1 < argc) {
      cand_path = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      char* end = nullptr;
      opt.max_regress_pct = std::strtod(argv[++i], &end);
      // NaN compares false against every delta and would pass everything.
      if (end == argv[i] || *end != '\0' ||
          !std::isfinite(opt.max_regress_pct) || opt.max_regress_pct < 0) {
        std::fprintf(stderr, "benchdiff: bad --tolerance '%s'\n", argv[i]);
        return usage(argv[0]);
      }
    } else if (arg == "--no-coverage") {
      opt.require_coverage = false;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "benchdiff: unknown or incomplete flag '%s'\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }
  if (base_path.empty() || cand_path.empty()) return usage(argv[0]);

  bool ok = false;
  const auto baseline = load_results(base_path, &ok);
  if (!ok) return 2;
  const auto candidate = load_results(cand_path, &ok);
  if (!ok) return 2;

  const auto report = emusim::report::diff_results(baseline, candidate, opt);
  for (const auto& p : report.problems) {
    std::printf("PROBLEM %s\n", p.c_str());
  }
  for (const auto& e : report.entries) {
    if (!e.regression && !verbose) continue;
    const std::string pt =
        e.label.empty() ? "x=" + std::to_string(e.x) : e.label;
    const std::string what =
        e.metric.empty() ? e.series : e.series + ":" + e.metric;
    std::printf("%s %s/%s %s: %.4g -> %.4g (%+.2f%%)\n",
                e.regression     ? "REGRESSION"
                : e.report_only  ? "latency   "
                                 : "ok        ",
                e.bench.c_str(), what.c_str(), pt.c_str(), e.base_y,
                e.cand_y, e.delta_pct);
  }
  std::printf(
      "benchdiff: %zu point(s) compared, %d regression(s) (tolerance "
      "%.1f%%), %d improvement(s), %zu problem(s)%s\n",
      report.entries.size(), report.regressions, opt.max_regress_pct,
      report.improvements, report.problems.size(),
      opt.require_coverage || report.problems.empty()
          ? ""
          : " [ignored: --no-coverage]");
  return report.ok(opt) ? 0 : 1;
}
