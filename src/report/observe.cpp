#include "report/observe.hpp"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace emusim::report {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list probe;
  va_copy(probe, args);
  const int need = std::vsnprintf(nullptr, 0, fmt, probe);
  va_end(probe);
  if (need < 0) {
    va_end(args);
    return;
  }
  const std::size_t old = out.size();
  out.resize(old + static_cast<std::size_t>(need) + 1);
  std::vsnprintf(out.data() + old, static_cast<std::size_t>(need) + 1, fmt,
                 args);
  va_end(args);
  out.resize(old + static_cast<std::size_t>(need));
}

/// Buffered line-at-a-time emitter for the traceEvents array: events are
/// written as they stream by, never held as a Json tree (a 64k-record ring
/// is ~130k events — building that as Json objects would dwarf the trace).
class EventStream {
 public:
  explicit EventStream(std::FILE* f) : f_(f) {}

  void event(const std::string& line) {
    buf_ += first_ ? "  " : ",\n  ";
    first_ = false;
    buf_ += line;
    if (buf_.size() >= (std::size_t{1} << 20)) flush();
  }

  bool flush() {
    if (!buf_.empty()) {
      ok_ = std::fwrite(buf_.data(), 1, buf_.size(), f_) == buf_.size() && ok_;
      buf_.clear();
    }
    return ok_;
  }

 private:
  std::FILE* f_;
  std::string buf_;
  bool first_ = true;
  bool ok_ = true;
};

double ts_us(Time t) { return static_cast<double>(t) / 1e6; }

/// Per simulated thread, the state needed to maintain its residency slice.
struct ThreadState {
  bool open = false;
  int nodelet = -1;
  std::uint64_t flow = 0;  ///< id of the in-flight migration arrow
  bool in_flight = false;
};

}  // namespace

TraceAccounting trace_accounting(const sim::Tracer& t) {
  TraceAccounting a;
  a.records = t.size();
  a.dropped = t.dropped();
  a.truncated = t.truncated();
  return a;
}

Json to_json(const TraceAccounting& a) {
  Json j = Json::object();
  j.set("records", Json::number(static_cast<double>(a.records)));
  j.set("dropped", Json::number(static_cast<double>(a.dropped)));
  j.set("truncated", Json::boolean(a.truncated));
  return j;
}

bool write_perfetto_trace(const sim::Tracer& t, int num_nodelets,
                          const std::string& path, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (err != nullptr) {
      *err = "cannot open '" + path + "': " + std::strerror(errno);
    }
    return false;
  }

  Json meta = to_json(trace_accounting(t));
  meta.set("num_nodelets", Json::number(num_nodelets));
  meta.set("tool", Json::string("emusim"));
  std::string head = "{\n\"displayTimeUnit\": \"ns\",\n\"otherData\": "
                     "{\"emusim\": " +
                     meta.dump(0) + "},\n\"traceEvents\": [\n";
  bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size();

  EventStream es(f);
  std::string line;

  // Per-nodelet process tracks, in nodelet order.
  for (int d = 0; d < num_nodelets; ++d) {
    line.clear();
    appendf(line,
            "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
            "\"args\":{\"name\":\"nodelet %d\"}}",
            d, d);
    es.event(line);
    line.clear();
    appendf(line,
            "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_sort_index\","
            "\"args\":{\"sort_index\":%d}}",
            d, d);
    es.event(line);
  }

  std::vector<ThreadState> threads;
  std::vector<int> resident(static_cast<std::size_t>(num_nodelets), 0);
  // Channel byte traffic, bucketed so the counter track stays compact.
  constexpr std::size_t kBytesBuckets = 256;
  std::vector<std::vector<std::uint64_t>> bytes(
      static_cast<std::size_t>(num_nodelets),
      std::vector<std::uint64_t>(kBytesBuckets, 0));
  Time t_max = t.size() > 0 ? t.at(t.size() - 1).t : 0;
  const Time bucket_w = t_max / static_cast<Time>(kBytesBuckets) + 1;
  std::uint64_t next_flow = 1;

  auto state = [&threads](std::int32_t tid) -> ThreadState* {
    if (tid < 0) return nullptr;
    if (static_cast<std::size_t>(tid) >= threads.size()) {
      threads.resize(static_cast<std::size_t>(tid) + 1);
    }
    return &threads[static_cast<std::size_t>(tid)];
  };
  auto in_range = [num_nodelets](std::int32_t d) {
    return d >= 0 && d < num_nodelets;
  };
  auto slice_begin = [&](int pid, std::int32_t tid, Time at) {
    line.clear();
    appendf(line,
            "{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%.6f,"
            "\"name\":\"t%d\",\"cat\":\"thread\"}",
            pid, tid, ts_us(at), tid);
    es.event(line);
  };
  auto slice_end = [&](int pid, std::int32_t tid, Time at) {
    line.clear();
    appendf(line, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.6f}", pid,
            tid, ts_us(at));
    es.event(line);
  };
  auto counter = [&](int pid, const char* name, const char* key, Time at,
                     long long v) {
    line.clear();
    appendf(line,
            "{\"ph\":\"C\",\"pid\":%d,\"ts\":%.6f,\"name\":\"%s\","
            "\"args\":{\"%s\":%lld}}",
            pid, ts_us(at), name, key, v);
    es.event(line);
  };
  auto arrive = [&](std::int32_t nlet, ThreadState* st, std::int32_t tid,
                    Time at) {
    if (st->open && st->nodelet == nlet) return;
    if (st->open) slice_end(st->nodelet, tid, at);  // missed departure
    st->open = true;
    st->nodelet = nlet;
    slice_begin(nlet, tid, at);
    ++resident[static_cast<std::size_t>(nlet)];
    counter(nlet, "resident threads", "threads", at,
            resident[static_cast<std::size_t>(nlet)]);
  };
  auto leave = [&](ThreadState* st, std::int32_t tid, Time at) {
    if (!st->open) return;  // truncated trace: the arrival was overwritten
    slice_end(st->nodelet, tid, at);
    st->open = false;
    int& r = resident[static_cast<std::size_t>(st->nodelet)];
    if (r > 0) --r;
    counter(st->nodelet, "resident threads", "threads", at, r);
  };

  t.for_each([&](const sim::TraceRecord& r) {
    ThreadState* st = state(r.tid);
    switch (r.kind) {
      case sim::TraceKind::thread_spawn:
        if (in_range(r.a)) {
          line.clear();
          appendf(line,
                  "{\"ph\":\"i\",\"s\":\"p\",\"pid\":%d,\"ts\":%.6f,"
                  "\"name\":\"spawn\",\"cat\":\"spawn\","
                  "\"args\":{\"parent_nodelet\":%d,\"tid\":%d}}",
                  r.a, ts_us(r.t), r.b, r.tid);
          es.event(line);
        }
        break;
      case sim::TraceKind::thread_start:
        if (st != nullptr && in_range(r.a)) arrive(r.a, st, r.tid, r.t);
        break;
      case sim::TraceKind::thread_end:
        if (st != nullptr) leave(st, r.tid, r.t);
        break;
      case sim::TraceKind::migrate_out:
        if (st != nullptr && in_range(r.a)) {
          // Flow arrow source: anchored at the end of the residency slice.
          line.clear();
          appendf(line,
                  "{\"ph\":\"s\",\"pid\":%d,\"tid\":%d,\"ts\":%.6f,"
                  "\"id\":%llu,\"name\":\"migrate\",\"cat\":\"migration\","
                  "\"args\":{\"src\":%d,\"dst\":%d}}",
                  r.a, r.tid, ts_us(r.t),
                  static_cast<unsigned long long>(next_flow), r.a, r.b);
          es.event(line);
          st->flow = next_flow++;
          st->in_flight = true;
          leave(st, r.tid, r.t);
        }
        break;
      case sim::TraceKind::migrate_in:
        if (st != nullptr && in_range(r.a)) {
          if (st->in_flight) {
            line.clear();
            appendf(line,
                    "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":%d,"
                    "\"ts\":%.6f,\"id\":%llu,\"name\":\"migrate\","
                    "\"cat\":\"migration\"}",
                    r.a, r.tid, ts_us(r.t),
                    static_cast<unsigned long long>(st->flow));
            es.event(line);
            st->in_flight = false;
          }
          arrive(r.a, st, r.tid, r.t);
        }
        break;
      case sim::TraceKind::mem_read:
      case sim::TraceKind::mem_write:
        if (in_range(r.a) && r.t >= 0) {
          bytes[static_cast<std::size_t>(r.a)]
               [static_cast<std::size_t>(r.t / bucket_w)] += r.arg;
        }
        break;
      case sim::TraceKind::remote_atomic:
        if (in_range(r.a) && r.t >= 0) {
          // The RMW occupies roughly two word accesses on the channel.
          bytes[static_cast<std::size_t>(r.a)]
               [static_cast<std::size_t>(r.t / bucket_w)] += 16;
        }
        break;
    }
  });

  // Close residency slices left open at the end of the trace.
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    if (threads[tid].open) {
      leave(&threads[tid], static_cast<std::int32_t>(tid), t_max);
    }
  }

  // Channel traffic counter tracks (bytes moved per bucket of sim time).
  for (int d = 0; d < num_nodelets; ++d) {
    bool any = false;
    for (std::size_t b = 0; b < kBytesBuckets; ++b) {
      const std::uint64_t v = bytes[static_cast<std::size_t>(d)][b];
      if (v == 0 && !any) continue;
      any = true;
      counter(d, "channel bytes", "bytes",
              static_cast<Time>(b) * bucket_w,
              static_cast<long long>(v));
    }
  }

  ok = es.flush() && ok;
  const char tail[] = "\n]\n}\n";
  ok = std::fwrite(tail, 1, sizeof tail - 1, f) == sizeof tail - 1 && ok;
  if (std::fclose(f) != 0) ok = false;
  if (!ok && err != nullptr) *err = "error writing '" + path + "'";
  return ok;
}

Json to_json(const emu::CounterDelta& d) {
  Json j = Json::object();
  if (!d.from.empty()) j.set("from", Json::string(d.from));
  j.set("phase", Json::string(d.to));
  j.set("t0_ms", Json::number(to_seconds(d.t0) * 1e3));
  j.set("t1_ms", Json::number(to_seconds(d.t1) * 1e3));

  Json m = Json::object();
  m.set("migrations", Json::number(static_cast<double>(d.machine.migrations)));
  m.set("internode_migrations",
        Json::number(static_cast<double>(d.machine.internode_migrations)));
  m.set("spawns", Json::number(static_cast<double>(d.machine.spawns)));
  m.set("remote_spawns",
        Json::number(static_cast<double>(d.machine.remote_spawns)));
  m.set("inline_spawns",
        Json::number(static_cast<double>(d.machine.inline_spawns)));
  m.set("threads_completed",
        Json::number(static_cast<double>(d.machine.threads_completed)));
  j.set("machine", std::move(m));

  Json rows = Json::array();
  for (const auto& c : d.nodelets) {
    Json r = Json::object();
    r.set("nodelet", Json::number(c.nodelet));
    r.set("reads", Json::number(static_cast<double>(c.reads)));
    r.set("read_bytes", Json::number(static_cast<double>(c.read_bytes)));
    r.set("writes", Json::number(static_cast<double>(c.writes)));
    r.set("write_bytes", Json::number(static_cast<double>(c.write_bytes)));
    r.set("remote_writes_in",
          Json::number(static_cast<double>(c.remote_writes_in)));
    r.set("atomics_in", Json::number(static_cast<double>(c.atomics_in)));
    r.set("arrivals", Json::number(static_cast<double>(c.thread_arrivals)));
    r.set("max_resident", Json::number(c.max_resident));
    r.set("row_hit_rate", Json::number(c.row_hit_rate));
    r.set("channel_utilization", Json::number(c.channel_utilization));
    rows.push_back(std::move(r));
  }
  j.set("nodelets", std::move(rows));

  if (!d.migration_matrix.empty()) {
    Json mm = Json::array();
    for (const auto& row : d.migration_matrix) {
      Json jr = Json::array();
      for (const auto v : row) {
        jr.push_back(Json::number(static_cast<double>(v)));
      }
      mm.push_back(std::move(jr));
    }
    j.set("migration_matrix", std::move(mm));
  }
  j.set("trace_truncated", Json::boolean(d.trace_truncated));
  return j;
}

BenchObserver::BenchObserver(Options opt) : opt_(std::move(opt)) {
  prev_ = emu::set_machine_observer(this);
}

BenchObserver::~BenchObserver() { emu::set_machine_observer(prev_); }

void BenchObserver::machine_created(emu::Machine& m) {
  if (tracing()) m.trace.enable(opt_.trace_capacity);
  if (opt_.counters) starts_.emplace_back(&m, emu::snapshot_counters(m));
}

void BenchObserver::machine_finished(emu::Machine& m, Time elapsed) {
  ++runs_;
  (void)elapsed;
  if (opt_.counters) {
    emu::CounterSnapshot end = emu::snapshot_counters(m);
    emu::CounterSnapshot start;
    bool found = false;
    for (std::size_t i = 0; i < starts_.size(); ++i) {
      if (starts_[i].first == &m) {
        start = std::move(starts_[i].second);
        starts_.erase(starts_.begin() + static_cast<std::ptrdiff_t>(i));
        found = true;
        break;
      }
    }
    if (!found) {
      // Machine predates this observer: diff against an all-zero start.
      start.nodelets.resize(end.nodelets.size());
      for (std::size_t i = 0; i < start.nodelets.size(); ++i) {
        start.nodelets[i].nodelet = static_cast<int>(i);
      }
    }
    pending_.push_back(to_json(emu::counters_delta(start, end)));
  }
  if (tracing() && m.trace.enabled()) {
    // Keep the busiest run (most events observed, retained or not): a bench
    // sweeps many machine runs and the densest one is the one worth opening
    // in Perfetto.  Ties go to the newer run.
    const std::uint64_t observed = m.trace.size() + m.trace.dropped();
    if (observed >=
        last_trace_.size() + last_trace_.dropped()) {
      last_trace_ = std::move(m.trace);
      last_num_nodelets_ = m.num_nodelets();
    }
  }
}

std::vector<Json> BenchObserver::take_pending_counters() {
  std::vector<Json> out = std::move(pending_);
  pending_.clear();
  return out;
}

void BenchObserver::inject_pending(Json delta) {
  pending_.push_back(std::move(delta));
}

void BenchObserver::offer_trace(sim::Tracer t, int num_nodelets, int runs) {
  runs_ += runs;
  if (num_nodelets <= 0) return;  // the other observer saw no traced run
  const std::uint64_t observed = t.size() + t.dropped();
  if (observed >= last_trace_.size() + last_trace_.dropped()) {
    last_trace_ = std::move(t);
    last_num_nodelets_ = num_nodelets;
  }
}

bool BenchObserver::write_trace(std::string* err) const {
  if (!tracing()) {
    if (err != nullptr) *err = "no --trace path configured";
    return false;
  }
  if (runs_ == 0 || last_num_nodelets_ == 0) {
    if (err != nullptr) *err = "no traced machine run to export";
    return false;
  }
  return write_perfetto_trace(last_trace_, last_num_nodelets_,
                              opt_.trace_path, err);
}

TraceAccounting BenchObserver::last_trace_accounting() const {
  return trace_accounting(last_trace_);
}

}  // namespace emusim::report
