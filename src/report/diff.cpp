#include "report/diff.hpp"

#include <cmath>

namespace emusim::report {

DiffReport diff_results(const std::vector<BenchResult>& baseline,
                        const std::vector<BenchResult>& candidate,
                        const DiffOptions& opt) {
  DiffReport rep;
  auto find_bench = [&candidate](const std::string& name) -> const BenchResult* {
    for (const auto& r : candidate) {
      if (r.bench == name) return &r;
    }
    return nullptr;
  };

  for (const auto& base : baseline) {
    const BenchResult* cand = find_bench(base.bench);
    if (cand == nullptr) {
      rep.problems.push_back("bench '" + base.bench +
                             "' missing from candidate");
      continue;
    }
    if (!base.fingerprint.empty() && !cand->fingerprint.empty() &&
        base.fingerprint != cand->fingerprint) {
      rep.problems.push_back(
          "bench '" + base.bench + "' config fingerprint mismatch (" +
          base.fingerprint + " vs " + cand->fingerprint +
          ") — refresh the baseline, these runs are not comparable");
      continue;
    }
    for (const auto& bs : base.series) {
      const ResultSeries* cs = cand->find(bs.name);
      if (cs == nullptr) {
        rep.problems.push_back("series '" + base.bench + "/" + bs.name +
                               "' missing from candidate");
        continue;
      }
      for (const auto& bp : bs.points) {
        const ResultPoint* cp = bp.label.empty()
                                    ? cs->find(bp.x)
                                    : cs->find_label(bp.label);
        if (cp == nullptr) {
          rep.problems.push_back(
              "point '" + base.bench + "/" + bs.name + "' at " +
              (bp.label.empty() ? "x=" + json_number(bp.x) : bp.label) +
              " missing from candidate");
          continue;
        }
        DiffEntry e;
        e.bench = base.bench;
        e.series = bs.name;
        e.x = bp.x;
        e.label = bp.label;
        e.base_y = bp.y;
        e.cand_y = cp->y;
        if (bp.y != 0.0) {
          e.delta_pct = (cp->y - bp.y) / std::fabs(bp.y) * 100.0;
        } else {
          e.delta_pct = cp->y == 0.0 ? 0.0 : 100.0;
        }
        e.regression = e.delta_pct < -opt.max_regress_pct;
        if (e.regression) ++rep.regressions;
        if (e.delta_pct > opt.max_regress_pct) ++rep.improvements;
        // Tail-latency summaries and the engine-work/footprint metrics
        // (engine_events, mem_peak_bytes) ride along as report-only entries
        // (see DiffEntry::report_only): deltas show in the diff output, but
        // a shifted percentile never fails the gate.
        const auto report_only_metric = [](const std::string& name) {
          return name.rfind("lat_", 0) == 0 || name == "engine_events" ||
                 name == "mem_peak_bytes";
        };
        std::vector<DiffEntry> lat;
        for (const auto& [name, bv] : bp.extra) {
          if (!report_only_metric(name)) continue;
          const double* cv = cp->metric(name);
          if (cv == nullptr) continue;
          DiffEntry le = e;
          le.metric = name;
          le.base_y = bv;
          le.cand_y = *cv;
          le.delta_pct = bv != 0.0
                             ? (*cv - bv) / std::fabs(bv) * 100.0
                             : (*cv == 0.0 ? 0.0 : 100.0);
          le.regression = false;
          le.report_only = true;
          lat.push_back(std::move(le));
        }
        rep.entries.push_back(std::move(e));
        for (auto& le : lat) rep.entries.push_back(std::move(le));
      }
    }
  }
  return rep;
}

}  // namespace emusim::report
