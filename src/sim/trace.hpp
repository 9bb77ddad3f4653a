// Event tracing for simulated machines.
//
// The vendor's toolchain ships a simulator that "counts key performance
// events such as the number of thread spawns, migrations, and memory
// operations per nodelet" (paper §III-B).  This tracer is the mechanism
// behind our equivalent: when enabled on a Machine it records a bounded
// stream of timestamped events that reports and tests can aggregate (e.g.
// per-nodelet utilization over time, migration matrices) and that
// report/observe.hpp exports as Chrome/Perfetto trace-event JSON.
//
// The trace is a bounded ring: enable(capacity) keeps the *newest*
// `capacity` records, overwriting the oldest, so a long run keeps its tail.
// `dropped()` counts records not retained and `truncated()` flags it;
// aggregations over a truncated trace are lower bounds, so every exporter
// must surface the flag (see docs/OBSERVABILITY.md).
//
// Tracing is off by default and costs one branch per event when disabled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace emusim::sim {

enum class TraceKind : std::uint8_t {
  thread_spawn,   ///< a = birth nodelet, b = parent nodelet (-1: root)
  thread_start,   ///< a = nodelet
  thread_end,     ///< a = nodelet
  migrate_out,    ///< a = source nodelet, b = destination nodelet
  migrate_in,     ///< a = destination nodelet, b = source nodelet
  mem_read,       ///< a = nodelet, arg = bytes
  mem_write,      ///< a = nodelet, arg = bytes
  remote_atomic,  ///< a = target nodelet
};

const char* to_string(TraceKind k);

struct TraceRecord {
  Time t = 0;
  TraceKind kind = TraceKind::thread_spawn;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t tid = -1;  ///< simulated thread id (-1: not attributed)
  std::uint64_t arg = 0;
};

class Tracer {
 public:
  /// Enable tracing into a ring of `capacity` records: at capacity the
  /// *oldest* record is overwritten, so a long run keeps its newest
  /// `capacity` events.  `dropped()` counts the overwritten records.
  void enable(std::size_t capacity = 1u << 20) {
    enabled_ = true;
    capacity_ = capacity;
    head_ = 0;
    records_.clear();
    records_.reserve(capacity < 4096 ? capacity : 4096);
    dropped_ = 0;
  }

  bool enabled() const { return enabled_; }

  void record(Time t, TraceKind kind, std::int32_t a, std::int32_t b = -1,
              std::uint64_t arg = 0, std::int32_t tid = -1) {
    if (!enabled_) return;
    if (records_.size() < capacity_) {
      records_.push_back(TraceRecord{t, kind, a, b, tid, arg});
      return;
    }
    ++dropped_;
    if (capacity_ == 0) return;  // nothing to overwrite
    records_[head_] = TraceRecord{t, kind, a, b, tid, arg};
    head_ = (head_ + 1) % capacity_;
  }

  /// Retained records in *storage* order.  The storage is rotated once the
  /// ring wraps — use size()/at()/for_each for time order.
  const std::vector<TraceRecord>& records() const { return records_; }

  std::size_t size() const { return records_.size(); }

  /// i-th retained record in time order (handles ring rotation).
  const TraceRecord& at(std::size_t i) const {
    return records_[(head_ + i) % records_.size()];
  }

  /// Visit every retained record, oldest first.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = records_.size();
    for (std::size_t i = 0; i < n; ++i) fn(records_[(head_ + i) % n]);
  }

  /// Records not retained (overwritten once the ring is full).
  std::uint64_t dropped() const { return dropped_; }

  /// True when any record was lost — every aggregation below is then a
  /// lower bound and exporters must say so.
  bool truncated() const { return dropped_ > 0; }

  /// Count records of one kind (optionally restricted to `a == who`).
  /// Over a truncated trace this undercounts; check truncated().
  std::size_t count(TraceKind kind, std::int32_t who = -1) const;

  /// Migration matrix: result[src][dst] = number of migrate_out records,
  /// sized num_nodelets x num_nodelets.  Records with out-of-range nodelet
  /// ids are counted into `*out_of_range` when given, never clamped.
  std::vector<std::vector<std::uint64_t>> migration_matrix(
      int num_nodelets, std::uint64_t* out_of_range = nullptr) const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< index of the oldest record once full
  std::uint64_t dropped_ = 0;
  std::vector<TraceRecord> records_;
};

}  // namespace emusim::sim
