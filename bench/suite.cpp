// bench/suite: every paper figure, ablation and extension sweep in one
// binary.  Each figure is a function in bench/<figure>.cpp that fills a
// fresh Harness through the shared SweepPool; the table below is the only
// list of them.
//
//   suite [flags] [<figure>...]
//
// runs the named figures in table order, or all of them when none is named.
// With --json <dir> each figure writes <dir>/<figure>.json.  Flags are the
// harness flags (bench_util.hpp); --trace exports one run, so it takes
// exactly one figure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sweep_pool.hpp"

using emusim::bench::Harness;
using emusim::bench::Options;
using emusim::bench::SweepPool;

// One entry per figure, in run order.
#define EMUSIM_FIGURES(X)          \
  X(fig04_stream_single_nodelet)   \
  X(fig05_stream_multi_nodelet)    \
  X(fig06_chase_emu)               \
  X(fig07_chase_xeon)              \
  X(fig08_utilization)             \
  X(fig09_spmv)                    \
  X(fig10_validation)              \
  X(fig11_chase_64nodelet)         \
  X(abl_migration_cost)            \
  X(abl_channel_width)             \
  X(abl_grain)                     \
  X(abl_context_size)              \
  X(abl_numa)                      \
  X(ext_gups)                      \
  X(ext_bfs)                       \
  X(ext_mttkrp)                    \
  X(serve_btree)                   \
  X(scale_chase)                   \
  X(stream_graph)                  \
  X(abl_sparse_opt)

#define EMUSIM_DECLARE_FIGURE(name) void name(Harness&, SweepPool&);
EMUSIM_FIGURES(EMUSIM_DECLARE_FIGURE)

namespace {

struct Figure {
  const char* name;
  void (*run)(Harness&, SweepPool&);
};

#define EMUSIM_FIGURE_ENTRY(name) {#name, name},
const Figure kFigures[] = {EMUSIM_FIGURES(EMUSIM_FIGURE_ENTRY)};

std::string suite_usage() {
  std::string u = emusim::bench::usage("suite") + "figures:\n";
  for (const Figure& f : kFigures) u += std::string("  ") + f.name + "\n";
  return u;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "suite: %s\n%s", msg.c_str(), suite_usage().c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> names;
  std::string err;
  if (!emusim::bench::parse_options(argc, argv, &opt, &err, &names)) {
    usage_error(err);
  }
  if (opt.help) {
    std::fputs(suite_usage().c_str(), stdout);
    return 0;
  }
  for (const std::string& n : names) {
    if (std::none_of(std::begin(kFigures), std::end(kFigures),
                     [&n](const Figure& f) { return n == f.name; })) {
      usage_error("unknown figure '" + n + "'");
    }
  }
  std::vector<const Figure*> run;
  for (const Figure& f : kFigures) {
    if (names.empty() ||
        std::find(names.begin(), names.end(), f.name) != names.end()) {
      run.push_back(&f);
    }
  }
  if (!opt.trace_path.empty() && run.size() != 1) {
    usage_error("--trace exports one figure's run; name exactly one figure");
  }
  if (opt.counters && opt.json_dir.empty()) {
    std::fprintf(stderr,
                 "suite: note: --counters deltas are emitted into the --json "
                 "results; pass --json <dir> to keep them\n");
  }

  SweepPool pool(opt);
  int status = 0;
  for (const Figure* f : run) {
    // A fresh harness per figure: its observer installs itself on this
    // thread and must be gone before the next figure's is installed.
    Harness h(f->name, opt);
    f->run(h, pool);
    if (h.done() != 0) status = 1;
  }
  return status;
}
