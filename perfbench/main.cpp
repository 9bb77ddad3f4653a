// The simulator-speed benchmark.
//
//   perfbench --workload <chase_xeon|chase_emu|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <path>]
//             [--commit <id>]
//
// Each workload is a fixed set of simulation points, built from --seed and
// run through the library's public kernel and serve entry points.  The
// untraced run (--trace 0) repeats the set serially until --seconds have
// passed and reports host time, throughput, set-up time and peak memory.
// The traced run (--trace 1) wraps every call into a layer in a span, adds
// microprobes of single classes, and reports per-layer numbers.  Both runs
// print a digest of the simulated outputs: the simulator is deterministic,
// so the digest depends only on the workload and the seed.  The last line
// of stdout is one JSON object: {correct, attempted, failed, metrics}.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "emu/machine.hpp"
#include "kernels/chase_emu.hpp"
#include "kernels/chase_xeon.hpp"
#include "probes.hpp"
#include "report/json.hpp"
#include "report/results.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "xeon/machine.hpp"

namespace {

using namespace emusim;
using perfbench::now_ns;
using perfbench::span;
using perfbench::Tracer;
using report::Json;

/// Host-time accounting of the traced passes, split by layer.  Each point
/// times its own inputs and machine construction as separate probe calls,
/// so a layer's simulation time is the entry point's time minus those.
struct Tally {
  double probe_ns = 0;  ///< host time of the probe calls themselves
  double build_ns = 0, builds = 0, build_share_num = 0, build_share_den = 0;
  double gen_ns = 0, gens = 0;
  double xeon_ctor_ns = 0, xeon_ctors = 0, emu_ctor_ns = 0, emu_ctors = 0;
  double xeon_sim_ns = 0, xeon_sims = 0, xeon_chase_sim_ns = 0, xeon_loads = 0;
  double emu_sim_ns = 0, emu_sims = 0;
  double engine_events = 0, peak_host_bytes = 0;
  // Simulated counts (identical on every pass).
  double llc_hit_sum = 0, llc_points = 0, row_hits = 0, row_misses = 0;
  double migrations = 0, emu_elements = 0;
};

/// What one point produced: named simulated outputs (the digest input),
/// the first verification failure, and the work items it simulated.
struct Outcome {
  std::vector<std::pair<std::string, double>> values;
  std::string error;
  double items = 0;

  std::string line() const {
    std::string s;
    char buf[64];
    for (const auto& [k, v] : values) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      s += (s.empty() ? "" : " ") + k + "=" + buf;
    }
    return s;
  }
};

struct Point {
  std::string name;
  bool multinode_emu = false;  ///< runs on more than one engine shard
  std::function<Outcome(Tracer*, Tally*)> run;
};

using Workload = std::vector<Point>;

double ms(double ns) { return ns * 1e-6; }
double ps_to_us(Time ps) { return static_cast<double>(ps) * 1e-6; }

/// Probe calls of a traced chase point: the list build and the machine
/// construction that the kernel entry point also does internally.
template <class Machine, class Cfg, class Params>
void chase_probes(Tracer* tr, Tally* ty, const Cfg& cfg, const Params& p,
                  const char* ctor_span, std::int64_t* build_ns,
                  std::int64_t* ctor_ns) {
  span(tr, "kernels.build_chase_list", [&] {
    return kernels::build_chase_list(p.n, p.block, p.threads, p.mode, p.seed)
        .n;
  }, build_ns);
  span(tr, ctor_span, [&] {
    Machine m(cfg);
    return m.engine().now();
  }, ctor_ns);
  ty->probe_ns += static_cast<double>(*build_ns + *ctor_ns);
  ty->build_ns += static_cast<double>(*build_ns);
  ty->builds += 1;
}

Workload chase_xeon(std::uint64_t seed) {
  const auto cfg = xeon::SystemConfig::sandy_bridge();
  // About twice the 20 MiB LLC, so block 1 misses and large blocks hit.
  const std::size_t n = std::size_t{1} << 21;
  std::vector<std::pair<kernels::ShuffleMode, int>> series = {
      {kernels::ShuffleMode::full_block_shuffle, 4},
      {kernels::ShuffleMode::full_block_shuffle, 32},
      {kernels::ShuffleMode::block_shuffle, 32}};
  Workload w;
  for (const auto& [mode, threads] : series) {
    for (std::size_t block : {1, 64, 1024, 16384}) {
      kernels::ChaseXeonParams p;
      p.n = n;
      p.block = block;
      p.threads = threads;
      p.mode = mode;
      p.seed = seed;
      const std::string name = std::string(to_string(mode)) + "/b" +
                               std::to_string(block) + "/t" +
                               std::to_string(threads);
      w.push_back({name, false, [cfg, p](Tracer* tr, Tally* ty) {
        std::int64_t build = 0, ctor = 0, call = 0;
        if (tr) {
          chase_probes<xeon::Machine>(tr, ty, cfg, p, "xeon.machine_ctor",
                                      &build, &ctor);
        }
        const auto r = span(tr, "xeon.run_chase_xeon", [&] {
          return kernels::run_chase_xeon(cfg, p);
        }, &call);
        Outcome o;
        o.values = {{"mb_per_s", r.mb_per_sec},
                    {"sim_ps", static_cast<double>(r.elapsed)},
                    {"llc_hit_rate", r.llc_hit_rate},
                    {"row_hits", static_cast<double>(r.row_hits)},
                    {"row_misses", static_cast<double>(r.row_misses)}};
        if (!r.verified) o.error = "chase sums differ from the list's";
        o.items = static_cast<double>(p.n);
        if (ty) {
          const double sim = static_cast<double>(call - build - ctor);
          ty->build_share_num += static_cast<double>(build);
          ty->build_share_den += static_cast<double>(call);
          ty->xeon_ctor_ns += static_cast<double>(ctor);
          ty->xeon_ctors += 1;
          ty->xeon_sim_ns += sim;
          ty->xeon_sims += 1;
          ty->xeon_chase_sim_ns += sim;
          ty->xeon_loads += static_cast<double>(p.n);
          ty->llc_hit_sum += r.llc_hit_rate;
          ty->llc_points += 1;
          ty->row_hits += static_cast<double>(r.row_hits);
          ty->row_misses += static_cast<double>(r.row_misses);
        }
        return o;
      }});
    }
  }
  return w;
}

Workload chase_emu(std::uint64_t seed) {
  // 64 nodelets on 8 node cards, so the engine runs 8 shards.
  const auto cfg = emu::SystemConfig::fullspeed_multinode(8);
  const std::size_t n = std::size_t{1} << 19;
  Workload w;
  for (std::size_t block : {1, 16, 64}) {
    for (int threads : {512, 2048}) {
      kernels::ChaseEmuParams p;
      p.n = n;
      p.block = block;
      p.threads = threads;
      p.mode = kernels::ShuffleMode::full_block_shuffle;
      p.seed = seed;
      const std::string name =
          "b" + std::to_string(block) + "/t" + std::to_string(threads);
      w.push_back({name, true, [cfg, p](Tracer* tr, Tally* ty) {
        std::int64_t build = 0, ctor = 0, call = 0;
        if (tr) {
          chase_probes<emu::Machine>(tr, ty, cfg, p, "emu.machine_ctor",
                                     &build, &ctor);
        }
        emu::take_run_telemetry();
        const auto r = span(tr, "emu.run_chase_emu", [&] {
          return kernels::run_chase_emu(cfg, p);
        }, &call);
        const auto tel = emu::take_run_telemetry();
        Outcome o;
        o.values = {{"mb_per_s", r.mb_per_sec},
                    {"sim_ps", static_cast<double>(r.elapsed)},
                    {"migrations", static_cast<double>(r.migrations)}};
        if (!r.verified) o.error = "chase sums differ from the list's";
        o.items = static_cast<double>(p.n);
        if (ty) {
          ty->build_share_num += static_cast<double>(build);
          ty->build_share_den += static_cast<double>(call);
          ty->emu_ctor_ns += static_cast<double>(ctor);
          ty->emu_ctors += 1;
          ty->emu_sim_ns += static_cast<double>(call - build - ctor);
          ty->emu_sims += 1;
          ty->engine_events += static_cast<double>(tel.engine_events);
          ty->peak_host_bytes = std::max(
              ty->peak_host_bytes, static_cast<double>(tel.peak_host_bytes));
          ty->migrations += static_cast<double>(r.migrations);
          ty->emu_elements += static_cast<double>(p.n);
        }
        return o;
      }});
    }
  }
  return w;
}

/// Request counts by kind, taken from the generated stream; a served point
/// must account for every request.
struct StreamCounts {
  std::uint64_t total = 0;
  std::uint64_t by_kind[serve::kNumOpKinds] = {};
};

Workload serve_mix(std::uint64_t seed) {
  const auto xcfg = xeon::SystemConfig::sandy_bridge();
  const auto hw = emu::SystemConfig::chick_hw();
  const auto two = emu::SystemConfig::fullspeed_multinode(2);
  Workload w;
  for (auto arrival : {serve::Arrival::uniform, serve::Arrival::zipf}) {
    serve::ServeParams p;
    p.stream.process = arrival;
    p.stream.requests = std::size_t{1} << 16;
    p.stream.seed = seed;
    StreamCounts counts;
    for (const auto& req : serve::generate_stream(p.stream)) {
      ++counts.total;
      ++counts.by_kind[static_cast<std::size_t>(req.op)];
    }
    const std::string a = serve::to_string(arrival);
    // The serve entry points generate the stream themselves from p.stream;
    // the traced run times that call as a probe.
    auto point = [p, counts](Tracer* tr, Tally* ty, const char* ctor_span,
                             const char* call_span, bool on_emu,
                             auto&& make_machine, auto&& call) {
      std::int64_t gen = 0, ctor = 0, call_ns = 0;
      if (tr) {
        span(tr, "serve.generate_stream", [&] {
          return serve::generate_stream(p.stream).size();
        }, &gen);
        span(tr, ctor_span, [&] { return make_machine(); }, &ctor);
      }
      emu::take_run_telemetry();
      const serve::ServeResult r = span(tr, call_span, call, &call_ns);
      const auto tel = emu::take_run_telemetry();
      const auto& lat = r.lat.overall();
      Outcome o;
      o.values = {{"mops_per_s", r.mops_per_sec},
                  {"sim_ps", static_cast<double>(r.elapsed)},
                  {"ops", static_cast<double>(r.ops)},
                  {"added", static_cast<double>(r.added)},
                  {"scanned", static_cast<double>(r.scanned)},
                  {"lat_p50_us", ps_to_us(lat.p50())},
                  {"lat_p95_us", ps_to_us(lat.p95())},
                  {"lat_p99_us", ps_to_us(lat.p99())},
                  {"lat_max_us", ps_to_us(lat.max())}};
      if (!r.verified || !r.error.empty()) {
        o.error = r.error.empty() ? "serve verification failed" : r.error;
      } else if (r.ops != counts.total ||
                 r.lookups != counts.by_kind[0] ||
                 r.inserts != counts.by_kind[1] ||
                 r.scans != counts.by_kind[2] || r.hits != r.lookups) {
        o.error = "served op counts differ from the generated stream";
      }
      o.items = static_cast<double>(r.ops);
      if (ty) {
        const double sim = static_cast<double>(call_ns - gen - ctor);
        ty->probe_ns += static_cast<double>(gen + ctor);
        ty->gen_ns += static_cast<double>(gen);
        ty->gens += 1;
        if (on_emu) {
          ty->emu_ctor_ns += static_cast<double>(ctor);
          ty->emu_ctors += 1;
          ty->emu_sim_ns += sim;
          ty->emu_sims += 1;
          ty->engine_events += static_cast<double>(tel.engine_events);
          ty->peak_host_bytes = std::max(
              ty->peak_host_bytes, static_cast<double>(tel.peak_host_bytes));
        } else {
          ty->xeon_ctor_ns += static_cast<double>(ctor);
          ty->xeon_ctors += 1;
          ty->xeon_sim_ns += sim;
          ty->xeon_sims += 1;
        }
      }
      return o;
    };
    w.push_back({"xeon/" + a, false, [=](Tracer* tr, Tally* ty) {
      return point(tr, ty, "xeon.machine_ctor", "serve.serve_xeon", false,
                   [&] { xeon::Machine m(xcfg); return m.engine().now(); },
                   [&] { return serve::serve_xeon(xcfg, p); });
    }});
    for (const auto* cfg : {&hw, &two}) {
      const emu::SystemConfig c = *cfg;
      w.push_back({"emu_" + c.name + "/" + a, c.nodes > 1,
                   [=](Tracer* tr, Tally* ty) {
        return point(tr, ty, "emu.machine_ctor", "serve.serve_emu", true,
                     [&] { emu::Machine m(c); return m.engine().now(); },
                     [&] { return serve::serve_emu(c, p); });
      }});
    }
  }
  return w;
}

const std::map<std::string, Workload (*)(std::uint64_t)> kWorkloads = {
    {"chase_xeon", chase_xeon},
    {"chase_emu", chase_emu},
    {"serve_mix", serve_mix}};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// FNV-1a over the points' names and simulated outputs.
std::string digest(const Workload& w, const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ '\n') * 1099511628211ULL;
  };
  for (std::size_t i = 0; i < w.size(); ++i) {
    mix(w[i].name);
    mix(lines[i]);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::getline(in, key);
  }
  return 0;
}

/// Runs passes over a workload and checks every point's outputs: its own
/// verification, and that its simulated outputs match the first pass.
class Runner {
 public:
  explicit Runner(const Workload& w)
      : w_(w), lines_(w.size()), times_(w.size()) {}

  /// One serial pass; returns its host seconds.
  double pass(Tracer* tr, Tally* ty) {
    const std::int64_t t0 = now_ns();
    const int root = tr ? tr->open("bench.pass") : -1;
    for (std::size_t i = 0; i < w_.size(); ++i) {
      const int id = tr ? tr->open("bench.point") : -1;
      const std::int64_t p0 = now_ns();
      const Outcome o = w_[i].run(tr, ty);
      times_[i].push_back(static_cast<double>(now_ns() - p0) * 1e-9);
      if (tr) tr->close(id);
      check(i, o);
      items_ += o.items;
    }
    if (tr) tr->close(root);
    ++passes_;
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  void check(std::size_t i, const Outcome& o) {
    ++attempted_;
    std::string why = o.error;
    if (why.empty() && lines_[i].empty()) lines_[i] = o.line();
    if (why.empty() && o.line() != lines_[i]) {
      why = "simulated outputs differ between passes";
    }
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "point %s failed: %s\n", w_[i].name.c_str(),
                   why.c_str());
    }
  }

  // Host interference only ever adds time, and on a shared host it comes
  // in bursts of a few seconds; a point's fastest pass is its cost.

  /// Σ over points of each point's fastest host seconds.
  double wall_s() const {
    double s = 0;
    for (const auto& t : times_) s += *std::min_element(t.begin(), t.end());
    return s;
  }
  double slowest_point_s() const {
    double s = 0;
    for (const auto& t : times_) {
      s = std::max(s, *std::min_element(t.begin(), t.end()));
    }
    return s;
  }
  double items_per_pass() const { return items_ / passes_; }
  int passes() const { return passes_; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::vector<std::string>& lines() const { return lines_; }

  void print_digest(const std::string& workload, std::uint64_t seed) const {
    for (std::size_t i = 0; i < w_.size(); ++i) {
      std::printf("point %s %s\n", w_[i].name.c_str(), lines_[i].c_str());
    }
    std::printf("digest %s seed=%" PRIu64 " %s\n", workload.c_str(), seed,
                digest(w_, lines_).c_str());
  }

 private:
  const Workload& w_;
  std::vector<std::string> lines_;
  std::vector<std::vector<double>> times_;
  double items_ = 0;
  int passes_ = 0;
  long attempted_ = 0;
  long failed_ = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

/// Adds a metric to the result.  `unmeasured`, when set, says why the
/// metric could not be measured on this workload; it then reads 0.
void add_metric(Json* metrics, const std::string& name, double value,
                const char* unit, const char* unmeasured = nullptr) {
  Json m = Json::object();
  m.set("value", Json::number(value));
  m.set("unit", Json::string(unit));
  metrics->set(name, std::move(m));
  std::printf("metric %-32s %.6g %s\n", name.c_str(), value, unit);
  if (unmeasured) std::printf("unmeasured %s: %s\n", name.c_str(), unmeasured);
}

/// Setup: construct the (self-validating) configs, generate shared inputs,
/// and run one untimed warm-up point.  Exits if the warm-up point fails its
/// verification.
Workload setup(const Args& a, std::vector<double>* setup_s) {
  const std::int64_t t0 = now_ns();
  Workload w = kWorkloads.at(a.workload)(a.seed);
  const Outcome warm = w.front().run(nullptr, nullptr);
  if (setup_s) setup_s->push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  if (!warm.error.empty()) {
    std::fprintf(stderr, "warm-up point failed: %s\n", warm.error.c_str());
    std::exit(1);
  }
  return w;
}

/// BenchResult JSON round trip over the run's points; returns ms (median of
/// five) and clears *ok if the reloaded result serializes differently.
double report_roundtrip_ms(const Workload& w,
                           const std::vector<std::string>& lines, bool* ok) {
  report::BenchResult res;
  res.bench = "perfbench";
  res.x_axis = "point";
  res.y_axis = "index";
  report::ResultSeries s;
  s.name = "points";
  for (std::size_t i = 0; i < w.size(); ++i) {
    report::ResultPoint p;
    p.x = static_cast<double>(i);
    p.label = w[i].name + " " + lines[i];
    s.points.push_back(p);
  }
  res.series.push_back(s);
  res.fingerprint = report::result_fingerprint(res);
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    const std::string text = res.to_json().dump(0);
    Json parsed;
    report::BenchResult back;
    std::string err;
    if (!Json::parse(text, &parsed, &err) ||
        !report::BenchResult::from_json(parsed, &back, &err) ||
        back.to_json().dump(0) != text) {
      *ok = false;
    }
    t.push_back(ms(static_cast<double>(now_ns() - t0)));
  }
  return median(t);
}

int timed_run(const Args& a, Json* metrics, bool* correct, long* attempted,
              long* failed) {
  std::vector<double> setup_s;
  const Workload w = setup(a, &setup_s);
  Runner run(w);
  // Host speed drifts over seconds, so setup_s is the median of set-ups
  // spread over the run: one more (discarded) set-up before every pass.
  const std::int64_t t0 = now_ns();
  do {
    if (run.passes() > 0) setup(a, &setup_s);
    run.pass(nullptr, nullptr);
  } while (static_cast<double>(now_ns() - t0) * 1e-9 < a.seconds);
  run.print_digest(a.workload, a.seed);
  *attempted = run.attempted();
  *failed = run.failed();
  *correct = run.failed() == 0;
  std::printf("passes %d, points attempted %ld, failed %ld, fail_frac %g\n",
              run.passes(), run.attempted(), run.failed(),
              static_cast<double>(run.failed()) /
                  static_cast<double>(run.attempted()));
  add_metric(metrics, "wall_s", run.wall_s(), "s");
  add_metric(metrics, "items_per_s", run.items_per_pass() / run.wall_s(),
             "1/s");
  add_metric(metrics, "slowest_point_s", run.slowest_point_s(), "s");
  add_metric(metrics, "setup_s", median(setup_s), "s");
  add_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  return 0;
}

int traced_run(const Args& a, Json* metrics, bool* correct, long* attempted,
               long* failed) {
  Tracer tr;
  const int sid = tr.open("bench.setup");
  const Workload w = setup(a, nullptr);
  tr.close(sid);
  Runner run(w);

  // Untraced and traced passes alternate, so the tracing overhead compares
  // passes taken under the same host conditions.  A traced pass also makes
  // the probe calls, whose time is left out of it: what remains over the
  // untraced pass is the cost of the spans.
  Tally tally;
  std::vector<double> untraced_s, traced_s;
  const std::int64_t t0 = now_ns();
  do {
    untraced_s.push_back(run.pass(nullptr, nullptr));
    const double probe_ns = tally.probe_ns;
    const double s = run.pass(&tr, &tally);
    traced_s.push_back(s - (tally.probe_ns - probe_ns) * 1e-9);
  } while (static_cast<double>(now_ns() - t0) * 1e-9 < a.seconds);
  const double traced_passes = static_cast<double>(traced_s.size());
  run.print_digest(a.workload, a.seed);

  // Window synchronisation: multi-shard Emu points at 2 engine threads vs 1.
  double t1 = 0, t2 = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (!w[i].multinode_emu) continue;
    std::int64_t ns1 = 0, ns2 = 0;
    const Outcome o1 = span(&tr, "sim.threads1", [&] {
      return w[i].run(nullptr, nullptr);
    }, &ns1);
    emu::set_engine_threads(2);
    const Outcome o2 = span(&tr, "sim.threads2", [&] {
      return w[i].run(nullptr, nullptr);
    }, &ns2);
    emu::set_engine_threads(1);
    run.check(i, o1);
    run.check(i, o2);
    t1 += static_cast<double>(ns1);
    t2 += static_cast<double>(ns2);
  }

  const perfbench::ProbeResult probes =
      span(&tr, "bench.probes", [&] { return perfbench::run_probes(a.seed); });
  bool roundtrip_ok = true;
  const double roundtrip_ms = span(&tr, "report.roundtrip", [&] {
    return report_roundtrip_ms(w, run.lines(), &roundtrip_ok);
  });

  *attempted = run.attempted();
  *failed = run.failed();
  *correct = run.failed() == 0 && probes.error.empty() && roundtrip_ok;
  if (!probes.error.empty()) {
    std::fprintf(stderr, "%s\n", probes.error.c_str());
  }
  if (!roundtrip_ok) std::fprintf(stderr, "BenchResult round trip differs\n");

  const Tally& t = tally;
  auto per = [](double sum, double count) {
    return count ? sum / count : 0.0;
  };
  // Self time per layer and traced pass, from the probe split: the list
  // build is charged to kernels, the request stream to serve, and machine
  // construction plus simulation to the machine's layer.
  auto self_ms = [&](double ns) { return ms(ns) / traced_passes; };
  // A metric of a layer the workload does not run, or of a count the layer
  // does not expose, reads 0 and is named on an "unmeasured" line.
  const char* no_chase =
      t.builds ? nullptr : "no chase lists on this workload";
  const char* no_stream =
      t.gens ? nullptr : "no request streams on this workload";
  const char* no_xeon =
      t.xeon_sims ? nullptr : "no Xeon points on this workload";
  const char* no_emu =
      t.emu_sims ? nullptr : "no Emu points on this workload";
  const char* no_multi =
      t1 ? nullptr : "no multi-shard Emu points on this workload";
  auto counted = [](double n, const char* absent) -> const char* {
    if (n) return nullptr;
    return absent ? absent
                  : "the layer runs, but ServeResult does not expose this count";
  };
  const double emu_sim_s = t.emu_sim_ns * 1e-9;
  add_metric(metrics, "kernels.build_chase_list_ms",
             ms(per(t.build_ns, t.builds)), "ms", no_chase);
  add_metric(metrics, "kernels.build_share",
             per(t.build_share_num, t.build_share_den), "ratio", no_chase);
  add_metric(metrics, "kernels.self_ms", self_ms(t.build_ns), "ms", no_chase);
  add_metric(metrics, "serve.generate_stream_ms",
             ms(per(t.gen_ns, t.gens)), "ms", no_stream);
  add_metric(metrics, "serve.self_ms", self_ms(t.gen_ns), "ms", no_stream);
  add_metric(metrics, "xeon.machine_ctor_ms",
             ms(per(t.xeon_ctor_ns, t.xeon_ctors)), "ms", no_xeon);
  add_metric(metrics, "xeon.sim_ms", ms(per(t.xeon_sim_ns, t.xeon_sims)), "ms",
             no_xeon);
  add_metric(metrics, "xeon.ns_per_load",
             per(t.xeon_chase_sim_ns, t.xeon_loads), "ns",
             counted(t.xeon_loads, no_xeon));
  add_metric(metrics, "xeon.self_ms",
             self_ms(t.xeon_ctor_ns + t.xeon_sim_ns), "ms", no_xeon);
  add_metric(metrics, "xeon.llc_lookup_hit_ns", probes.llc_lookup_hit_ns, "ns");
  add_metric(metrics, "xeon.llc_lookup_miss_ns",
             probes.llc_lookup_miss_ns, "ns");
  add_metric(metrics, "xeon.llc_contains_ns", probes.llc_contains_ns, "ns");
  add_metric(metrics, "xeon.llc_hit_rate",
             per(t.llc_hit_sum, t.llc_points), "ratio",
             counted(t.llc_points, no_xeon));
  add_metric(metrics, "mem.row_miss_fraction",
             per(t.row_misses, t.row_hits + t.row_misses), "ratio",
             counted(t.llc_points, no_xeon));
  add_metric(metrics, "emu.machine_ctor_ms",
             ms(per(t.emu_ctor_ns, t.emu_ctors)), "ms", no_emu);
  add_metric(metrics, "emu.sim_ms", ms(per(t.emu_sim_ns, t.emu_sims)), "ms",
             no_emu);
  add_metric(metrics, "emu.self_ms", self_ms(t.emu_ctor_ns + t.emu_sim_ns),
             "ms", no_emu);
  add_metric(metrics, "emu.migrations_per_element",
             per(t.migrations, t.emu_elements), "1/element",
             counted(t.emu_elements, no_emu));
  add_metric(metrics, "sim.engine_events",
             t.engine_events / traced_passes, "count", no_emu);
  add_metric(metrics, "sim.events_per_s",
             per(t.engine_events, emu_sim_s), "1/s", no_emu);
  add_metric(metrics, "sim.peak_host_bytes", t.peak_host_bytes, "B", no_emu);
  add_metric(metrics, "sim.threads2_ratio", per(t2, t1), "ratio", no_multi);
  add_metric(metrics, "sim.heap_ns_per_event", probes.heap_ns_per_event, "ns");
  add_metric(metrics, "sim.fifo_ns_per_event", probes.fifo_ns_per_event, "ns");
  add_metric(metrics, "report.roundtrip_ms", roundtrip_ms, "ms");
  add_metric(metrics, "trace.overhead_ratio",
             *std::min_element(traced_s.begin(), traced_s.end()) /
                 *std::min_element(untraced_s.begin(), untraced_s.end()),
             "ratio");

  if (!a.spans_out.empty()) {
    std::ofstream out(a.spans_out);
    out << tr.to_json().dump(0) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write spans to %s\n", a.spans_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a) || !kWorkloads.count(a.workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload chase_xeon|chase_emu|serve_mix "
                 "--seed N --seconds S --trace 0|1 [--spans-out PATH] "
                 "[--commit ID]\n");
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("host nproc=%u compiler=\"%s\" build_type=%s commit=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              build_type.c_str(), a.commit.c_str());
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing a %s build; every recorded number is "
                 "from a Release build\n",
                 build_type.c_str());
    return 2;
  }
  emu::set_engine_threads(1);

  Json metrics = Json::object();
  bool correct = false;
  long attempted = 0, failed = 0;
  const int rc = a.trace
                     ? traced_run(a, &metrics, &correct, &attempted, &failed)
                     : timed_run(a, &metrics, &correct, &attempted, &failed);
  if (rc != 0) return rc;
  Json out = Json::object();
  out.set("correct", Json::boolean(correct));
  out.set("attempted", Json::number(static_cast<double>(attempted)));
  out.set("failed", Json::number(static_cast<double>(failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump(0).c_str());
  return 0;
}
