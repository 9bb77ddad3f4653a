// Streaming tail-latency accounting for the online serving frontend.
//
// LatencyRecorder is a log-bucketed histogram over simulated Time values
// (picoseconds): 32 linear sub-buckets per power-of-two octave, so any
// recorded value lands in a bucket whose upper edge overstates it by at
// most 1/32 (~3.1%).  Storage is a fixed array (no allocation on the record
// path), recording is O(1), and merging two recorders is element-wise
// addition — which is what makes per-shard recording under the windowed
// shard schedule deterministic: bucket increments commute, so any shard
// interleaving folds to the same histogram.
//
// percentile() uses the nearest-rank definition and returns the bucket's
// upper edge — a conservative (never understated) estimate of the true
// order statistic, within the 1/32 bucket resolution.  max() is exact.
//
// PhasedLatency names a small set of recorders by phase (per-op-type for
// the serving bench: lookup / insert / scan) so results can report tails
// per phase as well as overall.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace emusim::serve {

class LatencyRecorder {
 public:
  /// Linear sub-buckets per octave (as a power of two).  32 sub-buckets
  /// bound the relative bucket width — and so the percentile overshoot —
  /// by 2^-5 = 3.125%.
  static constexpr int kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBucketBits;
  /// Values below kSubBuckets get exact unit buckets; above, each octave
  /// [2^k, 2^(k+1)) splits into kSubBuckets linear buckets.  63 octaves of
  /// a 64-bit value need (63 - 5 + 1) * 32 + 32 buckets.
  static constexpr std::size_t kNumBuckets =
      (63 - kSubBucketBits + 1) * kSubBuckets + kSubBuckets;

  /// Record one latency sample.  Negative values clamp to zero (they can
  /// only arise from a caller bug; the histogram stays well-defined).
  void record(Time v);

  std::uint64_t count() const { return count_; }
  Time max() const { return max_; }
  Time sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Nearest-rank percentile, q in (0, 1]: the upper edge of the bucket
  /// holding the ceil(q * count)-th smallest sample.  Returns 0 when empty.
  Time percentile(double q) const;
  Time p50() const { return percentile(0.50); }
  Time p95() const { return percentile(0.95); }
  Time p99() const { return percentile(0.99); }

  /// Fold another recorder in (bucket-wise addition; order-independent).
  void merge(const LatencyRecorder& o);

  /// Bucket index of a value — exposed for the edge-value unit tests.
  static std::size_t bucket_of(Time v);
  /// Inclusive upper edge of bucket `i` (the percentile representative).
  /// Edges beyond the Time range (the top octave's upper tail) saturate to
  /// the Time maximum instead of wrapping.
  static Time bucket_upper(std::size_t i);
  /// ceil(q * count) computed exactly in integer arithmetic, clamped to
  /// [1, count] (0 when count is 0).  The double product `q * count` the
  /// seed used misranks once count approaches 2^53; this stays exact for
  /// every uint64 count.  Exposed for the extreme-count regression tests.
  static std::uint64_t nearest_rank(double q, std::uint64_t count);

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  Time max_ = 0;
  Time sum_ = 0;
};

/// A named family of recorders (one per phase / op type) plus an overall
/// recorder.  Phase names are fixed at construction so per-shard copies
/// merge positionally without any name reconciliation.
class PhasedLatency {
 public:
  explicit PhasedLatency(std::vector<std::string> phases);

  void record(std::size_t phase, Time v);
  const LatencyRecorder& overall() const { return overall_; }
  const LatencyRecorder& phase(std::size_t i) const {
    return phases_[i].second;
  }
  const std::string& phase_name(std::size_t i) const {
    return phases_[i].first;
  }
  std::size_t num_phases() const { return phases_.size(); }

  /// Fold another set in; phase lists must be identical.
  void merge(const PhasedLatency& o);

 private:
  LatencyRecorder overall_;
  std::vector<std::pair<std::string, LatencyRecorder>> phases_;
};

}  // namespace emusim::serve
