// shapecheck — evaluate declarative shape assertions (tools/shapes/*.json)
// against bench result JSONs.  Exit 0 only when every assertion in every
// applicable spec passes; the paper's figure shapes become a CI gate.
//
//   shapecheck --shapes <file-or-dir> --results <file-or-dir>
//              [--allow-missing] [--verbose]
//
// By default a spec whose bench has no result file is a failure: a gate
// that silently skips is a broken gate.  --allow-missing downgrades those
// to warnings (useful when checking a partial result set locally).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "report/results.hpp"
#include "report/shapes.hpp"

namespace fs = std::filesystem;
using emusim::report::BenchResult;
using emusim::report::ShapeSpec;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shapes <file-or-dir> --results <file-or-dir>\n"
               "          [--allow-missing] [--verbose]\n",
               argv0);
  return 2;
}

/// Collect every .json file under `path` (or `path` itself), sorted so runs
/// are deterministic across filesystems.
std::vector<std::string> json_files(const std::string& path,
                                    std::string* err) {
  std::vector<std::string> out;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (const auto& e : fs::directory_iterator(path, ec)) {
      if (e.path().extension() == ".json") out.push_back(e.path().string());
    }
    if (ec) {
      *err = path + ": " + ec.message();
      return {};
    }
    std::sort(out.begin(), out.end());
  } else if (fs::exists(path, ec)) {
    out.push_back(path);
  } else {
    *err = path + ": no such file or directory";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string shapes_path, results_path;
  bool allow_missing = false, verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shapes" && i + 1 < argc) {
      shapes_path = argv[++i];
    } else if (arg == "--results" && i + 1 < argc) {
      results_path = argv[++i];
    } else if (arg == "--allow-missing") {
      allow_missing = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "shapecheck: unknown or incomplete flag '%s'\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }
  if (shapes_path.empty() || results_path.empty()) return usage(argv[0]);

  std::string err;
  const auto shape_files = json_files(shapes_path, &err);
  if (shape_files.empty()) {
    std::fprintf(stderr, "shapecheck: no shape specs: %s\n",
                 err.empty() ? shapes_path.c_str() : err.c_str());
    return 2;
  }
  const auto result_files = json_files(results_path, &err);
  if (result_files.empty()) {
    std::fprintf(stderr, "shapecheck: no results: %s\n",
                 err.empty() ? results_path.c_str() : err.c_str());
    return 2;
  }

  std::map<std::string, BenchResult> results;
  for (const auto& f : result_files) {
    BenchResult r;
    if (!BenchResult::load(f, &r, &err)) {
      std::fprintf(stderr, "shapecheck: %s\n", err.c_str());
      return 2;
    }
    results[r.bench] = std::move(r);
  }

  int specs = 0, checks = 0, failures = 0, missing = 0;
  for (const auto& f : shape_files) {
    ShapeSpec spec;
    if (!ShapeSpec::load(f, &spec, &err)) {
      std::fprintf(stderr, "shapecheck: %s\n", err.c_str());
      return 2;
    }
    ++specs;
    const auto it = results.find(spec.bench);
    if (it == results.end()) {
      ++missing;
      std::printf("%s %s: no result for bench '%s'\n",
                  allow_missing ? "SKIP" : "FAIL", f.c_str(),
                  spec.bench.c_str());
      continue;
    }
    const auto verdicts = emusim::report::evaluate(spec, it->second);
    for (const auto& v : verdicts) {
      ++checks;
      if (!v.pass) ++failures;
      if (!v.pass || verbose) {
        std::printf("%s [%s] %s%s%s\n", v.pass ? "ok  " : "FAIL",
                    spec.bench.c_str(), v.desc.c_str(),
                    v.detail.empty() ? "" : " — ", v.detail.c_str());
      }
    }
  }

  const bool missing_fail = missing > 0 && !allow_missing;
  std::printf(
      "shapecheck: %d spec(s), %d assertion(s), %d failure(s), %d missing "
      "bench(es)%s\n",
      specs, checks, failures, missing,
      missing_fail ? " (missing = failure; use --allow-missing to skip)" : "");
  return (failures > 0 || missing_fail) ? 1 : 0;
}
