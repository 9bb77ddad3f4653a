#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "emu/config.hpp"
#include "report/observe.hpp"
#include "report/table.hpp"
#include "serve/latency.hpp"
#include "xeon/config.hpp"

namespace emusim::bench {

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string format_x(const report::ResultPoint& p) {
  if (!p.label.empty()) return p.label;
  if (p.x == std::floor(p.x) && std::fabs(p.x) < 9e15) {
    return report::Table::integer(static_cast<long long>(p.x));
  }
  return report::Table::num(p.x, 2);
}

}  // namespace

std::string usage(const std::string& program) {
  return "usage: " + program +
         " [--json <dir>] [--quick] [--filter <substr>] [--jobs <n>]"
         " [--trace <path>]"
         " [--trace-cap <records>] [--counters] [--help] [<figure>...]\n"
         "value flags also accept --flag=value\n";
}

bool parse_options(int argc, char** argv, Options* out, std::string* err,
                   std::vector<std::string>* positional) {
  Options o;
  // Current flag's inline "--flag=value" payload, when present.
  bool has_inline = false;
  std::string inline_val;
  auto take_value = [&](int& i, const char* flag, std::string* dst) {
    if (has_inline) {
      *dst = inline_val;
      return true;
    }
    if (i + 1 >= argc) {
      *err = std::string(flag) + " requires an argument";
      return false;
    }
    *dst = argv[++i];
    return true;
  };
  auto take_int = [&](int& i, const char* flag, long lo, long hi, int* dst) {
    std::string v;
    if (!take_value(i, flag, &v)) return false;
    char* end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || n < lo || n > hi) {
      *err = std::string(flag) + " wants an integer in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "], got '" + v +
             "'";
      return false;
    }
    *dst = static_cast<int>(n);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    has_inline = false;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        inline_val = arg.substr(eq + 1);
        arg.erase(eq);
        has_inline = true;
      }
    }
    const char* a = arg.c_str();
    if (std::strcmp(a, "--json") == 0) {
      if (!take_value(i, "--json", &o.json_dir)) return false;
    } else if (std::strcmp(a, "--filter") == 0) {
      if (!take_value(i, "--filter", &o.filter)) return false;
    } else if (std::strcmp(a, "--jobs") == 0) {
      if (!take_int(i, "--jobs", 1, 1024, &o.jobs)) return false;
    } else if (std::strcmp(a, "--trace") == 0) {
      if (!take_value(i, "--trace", &o.trace_path)) return false;
      if (o.trace_path.empty()) {
        *err = "--trace wants a non-empty path";
        return false;
      }
    } else if (std::strcmp(a, "--trace-cap") == 0) {
      if (!take_int(i, "--trace-cap", 1, 1 << 30, &o.trace_cap)) return false;
    } else if (std::strcmp(a, "--counters") == 0 && !has_inline) {
      o.counters = true;
    } else if (std::strcmp(a, "--quick") == 0 && !has_inline) {
      o.quick = true;
    } else if ((std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) &&
               !has_inline) {
      o.help = true;
    } else if (positional != nullptr && arg[0] != '-') {
      positional->push_back(arg);
    } else {
      *err = std::string("unknown flag '") + argv[i] + "'";
      return false;
    }
  }
  *out = std::move(o);
  return true;
}

std::unique_ptr<report::BenchObserver> make_observer(const Options& opt) {
  if (opt.trace_path.empty() && !opt.counters) return nullptr;
  report::BenchObserver::Options obs;
  obs.counters = opt.counters;
  obs.trace_path = opt.trace_path;
  obs.trace_capacity = static_cast<std::size_t>(opt.trace_cap);
  return std::make_unique<report::BenchObserver>(obs);
}

Harness::Harness(std::string bench_name, Options opt)
    : name_(std::move(bench_name)),
      opt_(std::move(opt)),
      observer_(make_observer(opt_)) {
  result_.bench = name_;
  result_.quick = opt_.quick;
  start_wall_ = wall_now();
  tables_.push_back(TableGroup{name_, 1, {}});
  if (observer_ != nullptr) observe_counters_ = report::Json::array();
}

Harness::~Harness() = default;

void Harness::axes(std::string x, std::string y) {
  result_.x_axis = std::move(x);
  result_.y_axis = std::move(y);
}

void Harness::config(const std::string& key, std::string value) {
  for (auto& [k, v] : result_.config) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  result_.config.emplace_back(key, std::move(value));
}

void Harness::config(const std::string& key, long long value) {
  config(key, std::to_string(value));
}

bool Harness::enabled(const std::string& series) const {
  return opt_.filter.empty() || series.find(opt_.filter) != std::string::npos;
}

void Harness::table(const std::string& title, int precision) {
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].title == title) {
      current_table_ = i;
      return;
    }
  }
  // The constructor seeds a default table named after the bench; replace it
  // if it is still unused so single-table benches get their real title.
  if (tables_.size() == 1 && tables_[0].series_idx.empty() &&
      tables_[0].title == name_) {
    tables_[0].title = title;
    tables_[0].precision = precision;
    current_table_ = 0;
    return;
  }
  tables_.push_back(TableGroup{title, precision, {}});
  current_table_ = tables_.size() - 1;
}

report::ResultSeries& Harness::series_slot(const std::string& name) {
  for (std::size_t i = 0; i < result_.series.size(); ++i) {
    if (result_.series[i].name == name) return result_.series[i];
  }
  result_.series.push_back(report::ResultSeries{name, {}});
  tables_[current_table_].series_idx.push_back(result_.series.size() - 1);
  return result_.series.back();
}

void Harness::add(const std::string& series, double x, double y,
                  std::vector<std::pair<std::string, double>> extra) {
  add_labeled(series, "", x, y, std::move(extra));
}

void Harness::add_labeled(const std::string& series, const std::string& label,
                          double x, double y,
                          std::vector<std::pair<std::string, double>> extra) {
  report::ResultSeries& s = series_slot(series);
  if (label.empty() ? s.find(x) != nullptr : s.find_label(label) != nullptr) {
    fail("duplicate point: series '" + series + "' already has " +
         (label.empty() ? "x=" + report::json_number(x)
                        : "label '" + label + "'"));
  }
  for (const auto& [k, v] : extra) {
    if (k == "sim_ms") result_.sim_seconds += v / 1e3;
  }
  if (observer_ != nullptr) {
    absorb_pending_counters(
        series, label.empty() ? format_x(report::ResultPoint{x, y, "", {}})
                              : label);
  }
  s.points.push_back(report::ResultPoint{x, y, label, std::move(extra)});
}

void Harness::fail(const std::string& msg) {
  std::fprintf(stderr, "FAIL: %s\n", msg.c_str());
  std::exit(1);
}

void Harness::absorb_pending_counters(const std::string& series,
                                      const std::string& phase_key) {
  if (observer_ == nullptr || !observer_->counters()) return;
  auto pending = observer_->take_pending_counters();
  const std::string base = series + "/" + phase_key;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    // Several machine runs can back one point (multi-run kernels); keep
    // them apart so each run's deltas stay distinguishable.
    std::string phase = base;
    if (pending.size() > 1) phase += "#run" + std::to_string(i);
    pending[i].set("phase", report::Json::string(phase));
    observe_counters_.push_back(std::move(pending[i]));
  }
}

bool Harness::finish_observe() {
  if (observer_ == nullptr) return true;
  // Runs after the last add() (teardown probes etc.) still get recorded.
  absorb_pending_counters("unattributed", "end");
  bool ok = true;
  report::Json obs = report::Json::object();
  if (observer_->counters()) obs.set("counters", std::move(observe_counters_));
  if (observer_->tracing()) {
    std::string err;
    if (observer_->write_trace(&err)) {
      const report::TraceAccounting acct = observer_->last_trace_accounting();
      report::Json jt = report::to_json(acct);
      jt.set("file", report::Json::string(opt_.trace_path));
      obs.set("trace", std::move(jt));
      std::printf("trace: %zu records -> %s%s\n", acct.records,
                  opt_.trace_path.c_str(),
                  acct.truncated
                      ? " (TRUNCATED: oldest events overwritten; summaries "
                        "are lower bounds)"
                      : "");
    } else {
      std::fprintf(stderr, "%s: --trace: %s\n", name_.c_str(), err.c_str());
      ok = false;
    }
  }
  result_.observe = std::move(obs);
  return ok;
}

void Harness::print_tables() const {
  for (const auto& tg : tables_) {
    if (tg.series_idx.empty()) continue;
    report::Table t(tg.title);
    std::vector<std::string> header = {
        result_.x_axis.empty() ? std::string("x") : result_.x_axis};
    for (std::size_t si : tg.series_idx) {
      header.push_back(result_.series[si].name);
    }
    t.columns(header);
    // Row keys in first-seen order across the table's series.
    std::vector<const report::ResultPoint*> keys;
    for (std::size_t si : tg.series_idx) {
      for (const auto& p : result_.series[si].points) {
        const bool seen =
            std::any_of(keys.begin(), keys.end(),
                        [&p](const report::ResultPoint* k) {
                          return k->label.empty()
                                     ? p.label.empty() &&
                                           std::fabs(k->x - p.x) <=
                                               1e-9 * std::fmax(
                                                          1.0, std::fabs(p.x))
                                     : k->label == p.label;
                        });
        if (!seen) keys.push_back(&p);
      }
    }
    for (const report::ResultPoint* key : keys) {
      std::vector<std::string> cells = {format_x(*key)};
      for (std::size_t si : tg.series_idx) {
        const report::ResultSeries& s = result_.series[si];
        const report::ResultPoint* p = key->label.empty()
                                           ? s.find(key->x)
                                           : s.find_label(key->label);
        cells.push_back(p != nullptr
                            ? report::Table::num(p->y, tg.precision)
                            : std::string("-"));
      }
      t.row(std::move(cells));
    }
    t.print();
  }
}

int Harness::done() {
  result_.wall_seconds = wall_now() - start_wall_;
  bool ok = finish_observe();
  result_.fingerprint = report::result_fingerprint(result_);
  print_tables();
  if (!opt_.json_dir.empty()) {
    ok = result_.save(opt_.json_dir + "/" + name_ + ".json") && ok;
  }
  return ok ? 0 : 1;
}

void record_config(Harness& h, const emu::SystemConfig& cfg,
                   const std::string& prefix) {
  h.config(prefix + "machine", cfg.name);
  h.config(prefix + "nodes", static_cast<long long>(cfg.nodes));
  h.config(prefix + "nodelets_per_node",
           static_cast<long long>(cfg.nodelets_per_node));
  h.config(prefix + "gcs_per_nodelet",
           static_cast<long long>(cfg.gcs_per_nodelet));
  h.config(prefix + "gc_clock_hz", report::json_number(cfg.gc_clock_hz));
  h.config(prefix + "threadlet_slots_per_gc",
           static_cast<long long>(cfg.threadlet_slots_per_gc));
  h.config(prefix + "migrations_per_sec",
           report::json_number(cfg.migrations_per_sec));
  h.config(prefix + "migration_latency_ps",
           static_cast<long long>(cfg.migration_latency));
  h.config(prefix + "thread_context_bytes",
           static_cast<long long>(cfg.thread_context_bytes));
}

void record_config(Harness& h, const xeon::SystemConfig& cfg,
                   const std::string& prefix) {
  h.config(prefix + "machine", cfg.name);
  h.config(prefix + "cores", static_cast<long long>(cfg.cores));
  h.config(prefix + "sockets", static_cast<long long>(cfg.sockets));
  h.config(prefix + "clock_hz", report::json_number(cfg.clock_hz));
  h.config(prefix + "llc_bytes", static_cast<long long>(cfg.llc_bytes));
  h.config(prefix + "channels", static_cast<long long>(cfg.channels));
  h.config(prefix + "remote_socket_latency_ps",
           static_cast<long long>(cfg.remote_socket_latency));
}

void add_phase_p99s(const serve::PhasedLatency& lat,
                    std::vector<std::pair<std::string, double>>* extra) {
  for (std::size_t i = 0; i < lat.num_phases(); ++i) {
    const auto& phase = lat.phase(i);
    if (phase.count() == 0) continue;
    extra->emplace_back("lat_" + lat.phase_name(i) + "_p99_us",
                        static_cast<double>(phase.p99()) * 1e-6);
  }
}

}  // namespace emusim::bench
