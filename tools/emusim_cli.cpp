// emusim command-line driver: run any benchmark kernel on any machine
// configuration without writing code, with optional config overrides and
// the per-nodelet counter report.
//
//   emusim_cli stream   --config chick_hw --threads 512 --n 20
//   emusim_cli chase    --config chick_fullspeed8 --block 4 --threads 1024
//   emusim_cli chase    --platform xeon --block 256 --threads 32
//   emusim_cli spmv     --layout 2d --lap-n 100 --grain 16 --counters
//   emusim_cli spmv     --platform xeon --impl cilk_spawn --grain 16384
//   emusim_cli pingpong --config chick_as_simulated --threads 64
//   emusim_cli gups     --threads 512
//   emusim_cli bfs      --graph rmat --scale 12
//   emusim_cli mttkrp   --layout 1d --rank 8
//
// Overrides (Emu configs): --gc-mhz, --mig-per-sec, --mig-latency-us.
// `--n` is log2 of the element count for stream/chase/gups.  A key the
// chosen subcommand and platform never read, a number that does not parse
// or is out of its key's range, and a name outside a key's list are all
// usage errors (exit 2, naming the key).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>

#include "emu/counters.hpp"
#include "kernels/bfs_emu.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/chase_xeon.hpp"
#include "kernels/gups.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/pingpong.hpp"
#include "kernels/spmv_emu.hpp"
#include "kernels/spmv_xeon.hpp"
#include "kernels/stream_emu.hpp"
#include "kernels/stream_xeon.hpp"

using namespace emusim;

namespace {

[[noreturn]] void usage(const char* msg = nullptr);

/// Largest accepted log2 element count (--n, --updates, --scale): 16 Mi
/// elements, 4x the largest figure sweep, keeps the shift defined and the
/// host arrays to a few hundred MB.
constexpr long long kMaxLog2 = 24;
constexpr long long kMaxCount = 1LL << kMaxLog2;

struct Args {
  std::string benchmark;
  std::map<std::string, std::string> opts;
  /// Every key a subcommand looked up, given or not.
  mutable std::set<std::string> read;

  bool has(const std::string& k) const {
    read.insert(k);
    return opts.count(k) > 0;
  }
  /// --k as an integer in [lo, hi], or `dflt` when absent.
  long long num(const std::string& k, long long dflt, long long lo,
                long long hi) const {
    if (!has(k)) return dflt;
    const std::string& v = opts.at(k);
    char* end = nullptr;
    errno = 0;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || errno == ERANGE || x < lo ||
        x > hi) {
      bad_value(k, "an integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
    }
    return x;
  }
  /// --k as a real in [lo, hi] (never NaN), or `dflt` when absent.
  double real(const std::string& k, double dflt, double lo, double hi) const {
    if (!has(k)) return dflt;
    const std::string& v = opts.at(k);
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || !(x >= lo && x <= hi)) {
      char range[64];
      std::snprintf(range, sizeof range, "a number in [%g, %g]", lo, hi);
      bad_value(k, range);
    }
    return x;
  }
  /// --k as one of `names` (the first is the default).
  std::string choice(const std::string& k,
                     std::initializer_list<const char*> names) const {
    if (!has(k)) return *names.begin();
    const std::string& v = opts.at(k);
    std::string list;
    for (const char* n : names) {
      if (v == n) return v;
      list += (list.empty() ? "" : "|") + std::string(n);
    }
    bad_value(k, "one of " + list);
  }
  [[noreturn]] void bad_value(const std::string& k,
                              const std::string& want) const {
    const std::string msg =
        "--" + k + " wants " + want + ", got '" + opts.at(k) + "'";
    usage(msg.c_str());
  }

  /// Exit 2 on the first given key no accessor has looked up.  Subcommands
  /// call this once all their options are read, before simulating.
  void reject_unread() const {
    for (const auto& [k, v] : opts) {
      if (read.count(k) == 0) {
        const std::string msg = "--" + k + " is not an option of '" +
                                benchmark + "' on this platform";
        usage(msg.c_str());
      }
    }
  }
};

/// Prints each finished machine's per-nodelet counter report (--counters).
class CounterPrinter : public emu::MachineObserver {
 public:
  void machine_finished(emu::Machine& m, Time elapsed) override {
    std::fputs(emu::counters_report(m, elapsed).c_str(), stdout);
  }
};

[[noreturn]] void usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: emusim_cli <stream|chase|spmv|pingpong|gups|bfs|"
               "mttkrp> [--key value ...]\n"
               "  common: --platform emu|xeon  --config <name>  --threads N\n"
               "          --counters (print the per-nodelet report, emu)\n"
               "  sizes:  --n LOG2 (0..24)  --block B  --lap-n N  --grain G "
               "--rank R\n"
               "  emu configs: chick_hw chick_as_simulated chick_fullspeed "
               "chick_fullspeed8\n"
               "  xeon configs: sandy_bridge haswell\n"
               "  emu overrides: --gc-mhz F  --mig-per-sec F  "
               "--mig-latency-us F\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage();
  Args a;
  a.benchmark = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) usage("expected --key");
    if (std::strcmp(arg, "--counters") == 0) {
      a.opts["counters"] = "1";
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    a.opts[arg + 2] = argv[++i];
  }
  return a;
}

/// The Emu config named by --config with its overrides applied.  Also
/// installs the --counters report for the machines the run builds.
emu::SystemConfig emu_config(const Args& a) {
  const std::string name =
      a.choice("config", {"chick_hw", "chick_as_simulated", "chick_fullspeed",
                          "chick_fullspeed8"});
  emu::SystemConfig cfg = emu::SystemConfig::chick_hw();
  if (name == "chick_as_simulated") {
    cfg = emu::SystemConfig::chick_as_simulated();
  } else if (name == "chick_fullspeed") {
    cfg = emu::SystemConfig::chick_fullspeed();
  } else if (name == "chick_fullspeed8") {
    cfg = emu::SystemConfig::fullspeed_multinode(8);
  }
  if (a.has("gc-mhz")) {
    cfg.gc_clock_hz = a.real("gc-mhz", 150, 1, 1e5) * 1e6;
  }
  if (a.has("mig-per-sec")) {
    cfg.migrations_per_sec = a.real("mig-per-sec", 9e6, 1, 1e12);
  }
  if (a.has("mig-latency-us")) {
    cfg.migration_latency = us(a.real("mig-latency-us", 1.4, 0, 1e6));
  }
  if (a.has("counters")) {
    static CounterPrinter printer;
    emu::set_machine_observer(&printer);
  }
  return cfg;
}

xeon::SystemConfig xeon_config(const Args& a) {
  return a.choice("config", {"sandy_bridge", "haswell"}) == "haswell"
             ? xeon::SystemConfig::haswell()
             : xeon::SystemConfig::sandy_bridge();
}

int threads(const Args& a, int dflt) {
  return static_cast<int>(a.num("threads", dflt, 1, 1 << 20));
}

/// The chase list is cut into whole blocks and every thread walks at least
/// one, so --block must divide 2^n and --threads must not exceed the
/// block count.
void check_chase_shape(std::size_t n, std::size_t block, int nthreads) {
  if (n % block != 0) usage("--block must divide the 2^n element count");
  if (static_cast<std::size_t>(nthreads) > n / block) {
    usage("--threads must not exceed the block count 2^n / --block");
  }
}

void print_summary(const char* what, double value, const char* unit,
                   Time elapsed) {
  std::printf("%-10s %12.2f %-8s (simulated %s)\n", what, value, unit,
              format_time(elapsed).c_str());
}

int run_stream(const Args& a) {
  const auto n = std::size_t{1} << a.num("n", 19, 0, kMaxLog2);
  if (a.choice("platform", {"emu", "xeon"}) == "xeon") {
    kernels::StreamXeonParams p;
    p.n = n;
    p.threads = threads(a, 16);
    const auto cfg = xeon_config(a);
    a.reject_unread();
    const auto r = kernels::run_stream_xeon(cfg, p);
    print_summary("STREAM", r.mb_per_sec, "MB/s", r.elapsed);
    return r.verified ? 0 : 1;
  }
  kernels::StreamParams p;
  p.n = n;
  p.threads = threads(a, 512);
  const std::string strat =
      a.choice("strategy", {"recursive_remote_spawn", "serial_spawn",
                            "recursive_spawn", "serial_remote_spawn"});
  if (strat == "serial_spawn") {
    p.strategy = kernels::SpawnStrategy::serial_spawn;
  } else if (strat == "recursive_spawn") {
    p.strategy = kernels::SpawnStrategy::recursive_spawn;
  } else if (strat == "serial_remote_spawn") {
    p.strategy = kernels::SpawnStrategy::serial_remote_spawn;
  } else {
    p.strategy = kernels::SpawnStrategy::recursive_remote_spawn;
  }
  p.across = static_cast<int>(a.num("across", 0, 0, 1 << 16));
  const auto cfg = emu_config(a);
  a.reject_unread();
  const auto r = kernels::run_stream_add(cfg, p);
  print_summary("STREAM", r.mb_per_sec, "MB/s", r.elapsed);
  std::printf("migrations: %llu, spawns: %llu\n",
              static_cast<unsigned long long>(r.migrations),
              static_cast<unsigned long long>(r.spawns));
  return r.verified ? 0 : 1;
}

kernels::ShuffleMode parse_mode(const Args& a) {
  const std::string m =
      a.choice("mode", {"full_block_shuffle", "none", "intra_block_shuffle",
                        "block_shuffle"});
  if (m == "none") return kernels::ShuffleMode::none;
  if (m == "intra_block_shuffle") {
    return kernels::ShuffleMode::intra_block_shuffle;
  }
  if (m == "block_shuffle") return kernels::ShuffleMode::block_shuffle;
  return kernels::ShuffleMode::full_block_shuffle;
}

int run_chase(const Args& a) {
  if (a.choice("platform", {"emu", "xeon"}) == "xeon") {
    kernels::ChaseXeonParams p;
    p.n = std::size_t{1} << a.num("n", 21, 0, kMaxLog2);
    p.block = static_cast<std::size_t>(a.num("block", 64, 1, kMaxCount));
    p.threads = threads(a, 32);
    check_chase_shape(p.n, p.block, p.threads);
    p.mode = parse_mode(a);
    const auto cfg = xeon_config(a);
    a.reject_unread();
    const auto r = kernels::run_chase_xeon(cfg, p);
    print_summary("chase", r.mb_per_sec, "MB/s", r.elapsed);
    std::printf("llc hit rate: %.3f\n", r.llc_hit_rate);
    return r.verified ? 0 : 1;
  }
  kernels::ChaseEmuParams p;
  p.n = std::size_t{1} << a.num("n", 17, 0, kMaxLog2);
  p.block = static_cast<std::size_t>(a.num("block", 64, 1, kMaxCount));
  p.threads = threads(a, 512);
  check_chase_shape(p.n, p.block, p.threads);
  p.mode = parse_mode(a);
  const auto cfg = emu_config(a);
  a.reject_unread();
  const auto r = kernels::run_chase_emu(cfg, p);
  print_summary("chase", r.mb_per_sec, "MB/s", r.elapsed);
  std::printf("migrations/element: %.4f\n", r.migrations_per_element);
  return r.verified ? 0 : 1;
}

int run_spmv(const Args& a) {
  const auto n = static_cast<std::size_t>(a.num("lap-n", 100, 1, 4096));
  if (a.choice("platform", {"emu", "xeon"}) == "xeon") {
    kernels::SpmvXeonParams p;
    p.laplacian_n = n;
    p.threads = threads(a, 56);
    p.grain = static_cast<std::size_t>(a.num("grain", 16384, 1, kMaxCount));
    const std::string impl =
        a.choice("impl", {"mkl", "cilk_for", "cilk_spawn"});
    p.impl = impl == "cilk_for"
                 ? kernels::SpmvXeonImpl::cilk_for
                 : impl == "cilk_spawn" ? kernels::SpmvXeonImpl::cilk_spawn
                                        : kernels::SpmvXeonImpl::mkl;
    const auto cfg = xeon_config(a);
    a.reject_unread();
    const auto r = kernels::run_spmv_xeon(cfg, p);
    print_summary("SpMV", r.mb_per_sec, "MB/s", r.elapsed);
    return r.verified ? 0 : 1;
  }
  kernels::SpmvEmuParams p;
  p.laplacian_n = n;
  p.grain = static_cast<std::size_t>(a.num("grain", 16, 1, kMaxCount));
  const std::string layout = a.choice("layout", {"2d", "1d", "local"});
  p.layout = layout == "local"
                 ? kernels::SpmvLayout::local
                 : layout == "1d" ? kernels::SpmvLayout::one_d
                                  : kernels::SpmvLayout::two_d;
  const auto cfg = emu_config(a);
  a.reject_unread();
  const auto r = kernels::run_spmv_emu(cfg, p);
  print_summary("SpMV", r.mb_per_sec, "MB/s", r.elapsed);
  std::printf("migrations: %llu\n",
              static_cast<unsigned long long>(r.migrations));
  return r.verified ? 0 : 1;
}

int run_pingpong(const Args& a) {
  kernels::PingPongParams p;
  p.threads = threads(a, 64);
  p.round_trips =
      static_cast<int>(a.num("round-trips", 1000, 1, kMaxCount));
  const auto cfg = emu_config(a);
  a.reject_unread();
  const auto r = kernels::run_pingpong(cfg, p);
  print_summary("pingpong", r.migrations_per_sec / 1e6, "M mig/s", r.elapsed);
  std::printf("mean migration latency: %.2f us\n", r.mean_latency_us);
  return 0;
}

int run_gups(const Args& a) {
  kernels::GupsParams p;
  p.table_words = std::size_t{1} << a.num("n", 20, 0, kMaxLog2);
  p.updates = std::size_t{1} << a.num("updates", 17, 0, kMaxLog2);
  if (a.choice("platform", {"emu", "xeon"}) == "xeon") {
    p.threads = threads(a, 32);
    const auto cfg = xeon_config(a);
    a.reject_unread();
    const auto r = kernels::run_gups_xeon(cfg, p);
    print_summary("GUPS", r.giga_updates_per_sec, "GUPS", r.elapsed);
    return r.verified ? 0 : 1;
  }
  p.threads = threads(a, 512);
  const auto cfg = emu_config(a);
  a.reject_unread();
  const auto r = kernels::run_gups_emu(cfg, p);
  print_summary("GUPS", r.giga_updates_per_sec, "GUPS", r.elapsed);
  return r.verified ? 0 : 1;
}

int run_bfs(const Args& a) {
  const std::string kind = a.choice("graph", {"rmat", "grid", "uniform"});
  graph::Graph g;
  if (kind == "grid") {
    g = graph::make_grid_2d(
        static_cast<std::size_t>(a.num("side", 64, 1, 4096)));
  } else if (kind == "uniform") {
    g = graph::make_uniform_random(
        static_cast<std::size_t>(a.num("vertices", 16384, 1, kMaxCount)),
        a.real("degree", 16.0, 0, 1024), 5);
  } else {
    g = graph::make_rmat(static_cast<int>(a.num("scale", 12, 1, kMaxLog2)),
                         static_cast<int>(a.num("edge-factor", 16, 1, 64)), 5);
  }
  const auto last = static_cast<long long>(g.num_vertices) - 1;
  std::size_t source = static_cast<std::size_t>(a.num("source", 0, 0, last));
  if (kind == "rmat" && !a.has("source")) {
    for (std::size_t v = 0; v < g.num_vertices; ++v) {
      if (g.degree(v) > g.degree(source)) source = v;
    }
  }
  kernels::BfsEmuParams p;
  p.g = &g;
  p.source = source;
  const auto cfg = emu_config(a);
  a.reject_unread();
  const auto r = kernels::run_bfs_emu(cfg, p);
  print_summary("BFS", r.mteps, "MTEPS", r.elapsed);
  std::printf("levels: %d, migrations: %llu\n", r.levels,
              static_cast<unsigned long long>(r.migrations));
  return r.verified ? 0 : 1;
}

int run_mttkrp(const Args& a) {
  const auto dim = static_cast<std::size_t>(a.num("dim", 256, 1, 4096));
  const auto x = tensor::make_random_tensor(
      dim, dim, dim,
      static_cast<std::size_t>(a.num("nnz", 100000, 1, kMaxCount)), 31);
  if (a.choice("platform", {"emu", "xeon"}) == "xeon") {
    kernels::MttkrpXeonParams p;
    p.x = &x;
    p.rank = static_cast<int>(a.num("rank", 8, 1, 1024));
    p.threads = threads(a, 56);
    const auto cfg = xeon_config(a);
    a.reject_unread();
    const auto r = kernels::run_mttkrp_xeon(cfg, p);
    print_summary("MTTKRP", r.mflops, "Mflop/s", r.elapsed);
    return r.verified ? 0 : 1;
  }
  kernels::MttkrpEmuParams p;
  p.x = &x;
  p.rank = static_cast<int>(a.num("rank", 8, 1, 1024));
  p.layout = a.choice("layout", {"2d", "1d"}) == "1d"
                 ? kernels::MttkrpLayout::one_d
                 : kernels::MttkrpLayout::two_d;
  const auto cfg = emu_config(a);
  a.reject_unread();
  const auto r = kernels::run_mttkrp_emu(cfg, p);
  print_summary("MTTKRP", r.mflops, "Mflop/s", r.elapsed);
  std::printf("migrations: %llu\n",
              static_cast<unsigned long long>(r.migrations));
  return r.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.benchmark == "stream") return run_stream(a);
  if (a.benchmark == "chase") return run_chase(a);
  if (a.benchmark == "spmv") return run_spmv(a);
  if (a.benchmark == "pingpong") return run_pingpong(a);
  if (a.benchmark == "gups") return run_gups(a);
  if (a.benchmark == "bfs") return run_bfs(a);
  if (a.benchmark == "mttkrp") return run_mttkrp(a);
  usage("unknown benchmark");
}
