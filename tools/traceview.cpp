// traceview — summarize and validate the Chrome/Perfetto trace-event JSON
// files that the bench harness's --trace flag emits (docs/OBSERVABILITY.md).
//
//   traceview [--check] [--strict] [--top <n>] <trace.json>
//
// Default mode prints a human summary: top migration routes (from the flow
// arrows), a per-nodelet residency timeline (from the "resident threads"
// counter tracks), and — always — the dropped/truncated record accounting
// from the trace's own metadata.  A truncated trace is still a usable trace;
// what is never acceptable is pretending it is complete.
//
//   --check   structural validation: metadata present, every event carries
//             the fields its phase requires, B/E slices balance per thread
//             track, and every flow id has exactly one 's' and one 'f' in
//             causal order.  Exit 1 on the first batch of violations.
//   --strict  with --check: additionally fail when the trace is truncated
//             (the ring overwrote records).  CI uses this to keep golden
//             fixtures honest.
//
// An accounting field of the wrong type (say "dropped": "977") exits 2 in
// every mode, naming the field.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "report/json.hpp"

using emusim::report::Json;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--check] [--strict] [--top <n>] <trace.json>\n",
               argv0);
  return 2;
}

struct Accounting {
  double records = 0;
  double dropped = 0;
  bool truncated = false;
  double num_nodelets = 0;
  bool present = false;
};

/// Reads otherData.emusim into `*a`.  Returns "" or, for a field of the
/// wrong type, an error naming it: a fallback would read "dropped": "977"
/// as 0 and pass the trace as complete.
std::string read_accounting(const Json& root, Accounting* a) {
  const Json* other = root.find("otherData");
  const Json* meta = other ? other->find("emusim") : nullptr;
  if (!meta || !meta->is_object()) return "";
  using T = Json::Type;
  if (std::string e = meta->type_error({{"records", T::number},
                                        {"dropped", T::number},
                                        {"truncated", T::boolean},
                                        {"num_nodelets", T::number}});
      !e.empty()) {
    return e;
  }
  a->present = true;
  a->records = meta->get_number("records");
  a->dropped = meta->get_number("dropped");
  a->truncated = meta->get_bool("truncated");
  a->num_nodelets = meta->get_number("num_nodelets");
  return "";
}

void print_accounting(const Accounting& a) {
  if (!a.present) {
    std::printf("accounting: no emusim metadata (not written by --trace?)\n");
    return;
  }
  std::printf("accounting: %.0f records retained, %.0f dropped%s\n",
              a.records, a.dropped,
              a.truncated ? " -- trace TRUNCATED, aggregates are partial"
                          : " -- complete");
}

/// Structural validation (--check).  Appends human-readable violations to
/// `errs`, capped so a malformed file cannot flood the terminal.
void check_events(const Json& events, std::vector<std::string>* errs) {
  constexpr std::size_t kMaxErrs = 10;
  auto fail = [&](std::size_t i, const std::string& what) {
    if (errs->size() < kMaxErrs)
      errs->push_back("event " + std::to_string(i) + ": " + what);
  };
  // Per-(pid,tid) open-slice depth; per-flow-id ('s' count, 'f' count, ts).
  std::map<std::pair<int, int>, int> depth;
  struct Flow {
    int starts = 0, ends = 0;
    double start_ts = 0;
  };
  std::map<int, Flow> flows;
  const auto& items = events.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Json& e = items[i];
    if (!e.is_object()) {
      fail(i, "not an object");
      continue;
    }
    const std::string ph = e.get_string("ph");
    if (ph.size() != 1 || std::string("MBECisf").find(ph) == std::string::npos) {
      fail(i, "unknown ph '" + ph + "'");
      continue;
    }
    const Json* pid = e.find("pid");
    if (!pid || !pid->is_number()) fail(i, "missing numeric pid");
    if (ph == "M") continue;  // metadata carries no timestamp
    const Json* ts = e.find("ts");
    if (!ts || !ts->is_number()) {
      fail(i, ph + " event missing numeric ts");
      continue;
    }
    const int p = pid && pid->is_number() ? static_cast<int>(pid->as_number())
                                          : -1;
    const Json* tid = e.find("tid");
    const int t = tid && tid->is_number() ? static_cast<int>(tid->as_number())
                                          : -1;
    if (ph == "B" || ph == "E") {
      if (t < 0) fail(i, ph + " slice missing tid");
      int& d = depth[{p, t}];
      if (ph == "B") {
        ++d;
      } else if (--d < 0) {
        fail(i, "E without matching B on pid " + std::to_string(p) +
                    " tid " + std::to_string(t));
        d = 0;
      }
    } else if (ph == "s" || ph == "f") {
      const Json* id = e.find("id");
      if (!id || !id->is_number()) {
        fail(i, "flow event missing numeric id");
        continue;
      }
      Flow& fl = flows[static_cast<int>(id->as_number())];
      if (ph == "s") {
        ++fl.starts;
        fl.start_ts = ts->as_number();
      } else {
        ++fl.ends;
        if (e.get_string("bp") != "e") fail(i, "flow end missing bp:\"e\"");
        if (fl.starts == 0)
          fail(i, "flow 'f' before its 's'");
        else if (ts->as_number() < fl.start_ts)
          fail(i, "flow 'f' earlier than its 's'");
      }
    } else if (ph == "C") {
      const Json* args = e.find("args");
      if (!args || !args->is_object() || args->members().empty() ||
          !args->members().front().second.is_number())
        fail(i, "counter event without a numeric args member");
    }
  }
  for (const auto& [key, d] : depth)
    if (d != 0 && errs->size() < kMaxErrs)
      errs->push_back("unclosed slice: pid " + std::to_string(key.first) +
                      " tid " + std::to_string(key.second) + " depth " +
                      std::to_string(d));
  for (const auto& [id, fl] : flows)
    if ((fl.starts != 1 || fl.ends != 1) && errs->size() < kMaxErrs)
      errs->push_back("flow id " + std::to_string(id) + " has " +
                      std::to_string(fl.starts) + " starts / " +
                      std::to_string(fl.ends) + " ends (want 1/1)");
}

void print_summary(const Json& events, const Accounting& acct, int top_n) {
  // Route histogram from flow starts; residency samples from counter tracks.
  std::map<std::pair<int, int>, long long> routes;
  struct Sample {
    double ts;
    double value;
  };
  std::map<int, std::vector<Sample>> resident;  // pid -> samples
  std::map<std::string, long long> by_ph;
  double t_min = 0, t_max = 0;
  bool have_span = false;
  for (const Json& e : events.items()) {
    if (!e.is_object()) continue;
    const std::string ph = e.get_string("ph");
    ++by_ph[ph];
    const Json* ts = e.find("ts");
    if (ts && ts->is_number()) {
      const double t = ts->as_number();
      if (!have_span || t < t_min) t_min = t;
      if (!have_span || t > t_max) t_max = t;
      have_span = true;
    }
    if (ph == "s") {
      const Json* args = e.find("args");
      if (args) {
        routes[{static_cast<int>(args->get_number("src", -1)),
                static_cast<int>(args->get_number("dst", -1))}]++;
      }
    } else if (ph == "C" && e.get_string("name") == "resident threads") {
      const Json* args = e.find("args");
      if (args && ts && ts->is_number())
        resident[static_cast<int>(e.get_number("pid", -1))].push_back(
            {ts->as_number(), args->get_number("threads")});
    }
  }

  std::printf("events:");
  for (const auto& [ph, n] : by_ph) std::printf(" %s=%lld", ph.c_str(), n);
  std::printf("\n");
  if (have_span)
    std::printf("span: %.3f us .. %.3f us (%.3f us)\n", t_min, t_max,
                t_max - t_min);

  long long total_migrations = 0;
  for (const auto& [route, n] : routes) total_migrations += n;
  std::printf("\nmigration routes (%lld migrations in trace window):\n",
              total_migrations);
  if (routes.empty()) {
    std::printf("  none recorded\n");
  } else {
    std::vector<std::pair<std::pair<int, int>, long long>> sorted(
        routes.begin(), routes.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    const std::size_t n_show =
        std::min<std::size_t>(sorted.size(), static_cast<std::size_t>(top_n));
    for (std::size_t i = 0; i < n_show; ++i)
      std::printf("  nlet %d -> nlet %d : %lld\n", sorted[i].first.first,
                  sorted[i].first.second, sorted[i].second);
    if (n_show < sorted.size())
      std::printf("  ... %zu more routes\n", sorted.size() - n_show);
  }

  std::printf("\nper-nodelet residency (time-weighted over trace span):\n");
  if (resident.empty() || !have_span || t_max <= t_min) {
    std::printf("  no resident-thread counter samples\n");
  } else {
    for (auto& [pid, samples] : resident) {
      std::stable_sort(
          samples.begin(), samples.end(),
          [](const Sample& a, const Sample& b) { return a.ts < b.ts; });
      double weighted = 0, busy = 0, vmax = 0;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const double until =
            i + 1 < samples.size() ? samples[i + 1].ts : t_max;
        const double dt = std::max(0.0, until - samples[i].ts);
        weighted += samples[i].value * dt;
        if (samples[i].value > 0) busy += dt;
        vmax = std::max(vmax, samples[i].value);
      }
      const double span = t_max - t_min;
      std::printf("  nlet %d : mean %.2f, max %.0f threads, occupied %.1f%% "
                  "of span\n",
                  pid, weighted / span, vmax, 100.0 * busy / span);
    }
  }
  std::printf("\n");
  print_accounting(acct);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false, strict = false;
  int top_n = 10;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--top" && i + 1 < argc) {
      top_n = std::atoi(argv[++i]);
      if (top_n <= 0) {
        std::fprintf(stderr, "traceview: --top wants a positive integer\n");
        return usage(argv[0]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "traceview: unknown or incomplete flag '%s'\n",
                   arg.c_str());
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "traceview: more than one trace file given\n");
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);
  if (strict) check = true;  // --strict is a stricter --check

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "traceview: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  Json root;
  std::string err;
  if (!Json::parse(buf.str(), &root, &err)) {
    std::fprintf(stderr, "traceview: %s: malformed JSON: %s\n", path.c_str(),
                 err.c_str());
    return 1;
  }
  if (!root.is_object()) {
    std::fprintf(stderr, "traceview: %s: top level is not an object\n",
                 path.c_str());
    return 1;
  }
  const Json* events = root.find("traceEvents");
  if (!events || !events->is_array()) {
    std::fprintf(stderr, "traceview: %s: missing traceEvents array\n",
                 path.c_str());
    return 1;
  }
  Accounting acct;
  if (const std::string e = read_accounting(root, &acct); !e.empty()) {
    std::fprintf(stderr, "traceview: %s: otherData.emusim: %s\n",
                 path.c_str(), e.c_str());
    return 2;
  }

  if (check) {
    std::vector<std::string> errs;
    if (!acct.present)
      errs.push_back("missing otherData.emusim accounting metadata");
    check_events(*events, &errs);
    if (strict && (acct.truncated || acct.dropped > 0))
      errs.push_back("strict: trace is truncated (" +
                     std::to_string(static_cast<long long>(acct.dropped)) +
                     " records dropped)");
    if (!errs.empty()) {
      for (const auto& e : errs)
        std::fprintf(stderr, "traceview: %s: %s\n", path.c_str(), e.c_str());
      std::fprintf(stderr, "traceview: %s: FAILED %s\n", path.c_str(),
                   strict ? "--check --strict" : "--check");
      return 1;
    }
    print_accounting(acct);
    std::printf("%s: OK (%zu events%s)\n", path.c_str(),
                events->items().size(), strict ? ", strict" : "");
    return 0;
  }

  std::printf("%s\n", path.c_str());
  print_summary(*events, acct, top_n);
  return 0;
}
