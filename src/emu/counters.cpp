#include "emu/counters.hpp"

#include <cstdarg>
#include <cstdio>

#include "common/check.hpp"

namespace emusim::emu {

namespace {

/// printf-append into a growable string: a row is never silently cut at a
/// fixed buffer size (long machine names, large counters).
void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list probe;
  va_copy(probe, args);
  const int need = std::vsnprintf(nullptr, 0, fmt, probe);
  va_end(probe);
  EMUSIM_CHECK(need >= 0);
  const std::size_t old = out.size();
  out.resize(old + static_cast<std::size_t>(need) + 1);
  std::vsnprintf(out.data() + old, static_cast<std::size_t>(need) + 1, fmt,
                 args);
  va_end(args);
  out.resize(old + static_cast<std::size_t>(need));  // drop the NUL
}

double rate(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

std::vector<NodeletCounters> collect_counters(Machine& m, Time elapsed) {
  std::vector<NodeletCounters> out;
  out.reserve(static_cast<std::size_t>(m.num_nodelets()));
  for (int d = 0; d < m.num_nodelets(); ++d) {
    Nodelet& n = m.nodelet(d);
    NodeletCounters c;
    c.nodelet = d;
    c.reads = n.stats.reads;
    c.read_bytes = n.stats.read_bytes;
    c.writes = n.stats.writes;
    c.write_bytes = n.stats.write_bytes;
    c.remote_writes_in = n.stats.remote_writes_in;
    c.atomics_in = n.stats.atomics_in;
    c.thread_arrivals = n.stats.thread_arrivals;
    c.max_resident = n.stats.max_resident;
    const auto& ch = n.channel().stats();
    c.row_hits = ch.row_hits;
    c.row_misses = ch.row_misses;
    c.bus_busy = n.channel().bus_busy_time();
    c.row_hit_rate = rate(c.row_hits, c.row_hits + c.row_misses);
    c.channel_utilization =
        elapsed > 0 ? static_cast<double>(c.bus_busy) /
                          static_cast<double>(elapsed)
                    : 0.0;
    out.push_back(c);
  }
  return out;
}

std::string counters_report(Machine& m, Time elapsed) {
  std::string out;

  appendf(out,
          "machine %s: elapsed %s, %llu threads (%llu remote spawns, "
          "%llu elided), %llu migrations (%llu inter-node)\n",
          m.cfg().name.c_str(), format_time(elapsed).c_str(),
          static_cast<unsigned long long>(m.stats.spawns),
          static_cast<unsigned long long>(m.stats.remote_spawns),
          static_cast<unsigned long long>(m.stats.inline_spawns),
          static_cast<unsigned long long>(m.stats.migrations),
          static_cast<unsigned long long>(m.stats.internode_migrations));
  if (m.stats.migration_latency_ns.count() > 0) {
    appendf(out, "migration latency: mean %.2f us, p99 ~%.2f us\n",
            m.stats.migration_latency_ns.summary().mean() / 1e3,
            static_cast<double>(m.stats.migration_latency_ns.quantile(0.99)) /
                1e3);
  }
  if (m.trace.enabled() && m.trace.truncated()) {
    appendf(out,
            "trace TRUNCATED: %llu records overwritten — per-event "
            "aggregations below stats are lower bounds\n",
            static_cast<unsigned long long>(m.trace.dropped()));
  }

  appendf(out, "%-4s %10s %10s %10s %8s %8s %8s %6s %7s %6s\n", "nlet",
          "reads", "readMB", "writes", "remwr", "atomics", "arrive", "maxres",
          "rowhit%", "bus%");
  for (const auto& c : collect_counters(m, elapsed)) {
    appendf(out,
            "%-4d %10llu %10.2f %10llu %8llu %8llu %8llu %6d %7.1f %6.1f\n",
            c.nodelet, static_cast<unsigned long long>(c.reads),
            static_cast<double>(c.read_bytes) / 1e6,
            static_cast<unsigned long long>(c.writes),
            static_cast<unsigned long long>(c.remote_writes_in),
            static_cast<unsigned long long>(c.atomics_in),
            static_cast<unsigned long long>(c.thread_arrivals), c.max_resident,
            100.0 * c.row_hit_rate, 100.0 * c.channel_utilization);
  }
  return out;
}

CounterSnapshot snapshot_counters(Machine& m, const std::string& phase) {
  CounterSnapshot s;
  s.phase = phase;
  s.t = m.engine().now();
  s.machine.migrations = m.stats.migrations;
  s.machine.internode_migrations = m.stats.internode_migrations;
  s.machine.spawns = m.stats.spawns;
  s.machine.remote_spawns = m.stats.remote_spawns;
  s.machine.inline_spawns = m.stats.inline_spawns;
  s.machine.threads_completed = m.stats.threads_completed;
  s.nodelets = collect_counters(m, s.t);
  if (m.trace.enabled()) {
    s.migration_matrix = m.trace.migration_matrix(m.num_nodelets());
    s.trace_truncated = m.trace.truncated();
  }
  return s;
}

CounterDelta counters_delta(const CounterSnapshot& from,
                            const CounterSnapshot& to) {
  EMUSIM_CHECK(from.nodelets.size() == to.nodelets.size());
  CounterDelta d;
  d.from = from.phase;
  d.to = to.phase;
  d.t0 = from.t;
  d.t1 = to.t;
  d.machine.migrations = to.machine.migrations - from.machine.migrations;
  d.machine.internode_migrations =
      to.machine.internode_migrations - from.machine.internode_migrations;
  d.machine.spawns = to.machine.spawns - from.machine.spawns;
  d.machine.remote_spawns =
      to.machine.remote_spawns - from.machine.remote_spawns;
  d.machine.inline_spawns =
      to.machine.inline_spawns - from.machine.inline_spawns;
  d.machine.threads_completed =
      to.machine.threads_completed - from.machine.threads_completed;

  const Time window = d.t1 - d.t0;
  d.nodelets.reserve(to.nodelets.size());
  for (std::size_t i = 0; i < to.nodelets.size(); ++i) {
    const NodeletCounters& a = from.nodelets[i];
    const NodeletCounters& b = to.nodelets[i];
    NodeletCounters c;
    c.nodelet = b.nodelet;
    c.reads = b.reads - a.reads;
    c.read_bytes = b.read_bytes - a.read_bytes;
    c.writes = b.writes - a.writes;
    c.write_bytes = b.write_bytes - a.write_bytes;
    c.remote_writes_in = b.remote_writes_in - a.remote_writes_in;
    c.atomics_in = b.atomics_in - a.atomics_in;
    c.thread_arrivals = b.thread_arrivals - a.thread_arrivals;
    c.max_resident = b.max_resident;  // a high-water mark does not diff
    c.row_hits = b.row_hits - a.row_hits;
    c.row_misses = b.row_misses - a.row_misses;
    c.bus_busy = b.bus_busy - a.bus_busy;
    c.row_hit_rate = rate(c.row_hits, c.row_hits + c.row_misses);
    c.channel_utilization =
        window > 0 ? static_cast<double>(c.bus_busy) /
                         static_cast<double>(window)
                   : 0.0;
    d.nodelets.push_back(c);
  }

  if (!to.migration_matrix.empty()) {
    d.migration_matrix = to.migration_matrix;
    for (std::size_t s = 0; s < d.migration_matrix.size(); ++s) {
      for (std::size_t t = 0; t < d.migration_matrix[s].size(); ++t) {
        if (s < from.migration_matrix.size() &&
            t < from.migration_matrix[s].size()) {
          // Clamp at zero: a ring-mode trace can have overwritten records
          // counted in `from` but gone by `to` (trace_truncated flags it).
          const std::uint64_t f = from.migration_matrix[s][t];
          std::uint64_t& cell = d.migration_matrix[s][t];
          cell = cell >= f ? cell - f : 0;
        }
      }
    }
  }
  d.trace_truncated = from.trace_truncated || to.trace_truncated;
  return d;
}

}  // namespace emusim::emu
