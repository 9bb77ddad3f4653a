#include "serve/latency.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace emusim::serve {

std::size_t LatencyRecorder::bucket_of(Time v) {
  if (v < 0) v = 0;
  const auto u = static_cast<std::uint64_t>(v);
  if (u < kSubBuckets) return static_cast<std::size_t>(u);
  const int msb = 63 - std::countl_zero(u);
  const std::uint64_t top = u >> (msb - kSubBucketBits);  // [32, 64)
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(msb - kSubBucketBits + 1) << kSubBucketBits) +
      (top - kSubBuckets));
}

Time LatencyRecorder::bucket_upper(std::size_t i) {
  if (i < kSubBuckets) return static_cast<Time>(i);
  const int octave = static_cast<int>(i >> kSubBucketBits) - 1;
  const std::uint64_t sub = i & (kSubBuckets - 1);
  // The top octaves overflow 64-bit edge arithmetic ((kSubBuckets + sub)
  // << octave wraps once octave reaches 58 and the edge passes 2^63);
  // compute in 128 bits and saturate to the Time range.
  const unsigned __int128 upper =
      (static_cast<unsigned __int128>(kSubBuckets + sub) << octave) +
      ((static_cast<unsigned __int128>(1) << octave) - 1);
  constexpr auto kTimeMax =
      static_cast<unsigned __int128>(std::numeric_limits<Time>::max());
  return upper > kTimeMax ? std::numeric_limits<Time>::max()
                          : static_cast<Time>(upper);
}

namespace {
// Sums of non-negative latencies saturate at the Time maximum instead of
// overflowing; below it they are exact.
Time saturating_add(Time a, Time b) {
  Time out;
  return __builtin_add_overflow(a, b, &out) ? std::numeric_limits<Time>::max()
                                            : out;
}
}  // namespace

void LatencyRecorder::record(Time v) {
  if (v < 0) v = 0;
  ++buckets_[bucket_of(v)];
  ++count_;
  sum_ = saturating_add(sum_, v);
  if (v > max_) max_ = v;
}

std::uint64_t LatencyRecorder::nearest_rank(double q, std::uint64_t count) {
  EMUSIM_CHECK(q > 0.0 && q <= 1.0);
  if (count == 0) return 0;
  // ceil(q * count) without the double round trip (q * count as a double
  // misranks once count approaches 2^53): decompose q = mant * 2^exp with
  // mant in [0.5, 1), lift the significand to the 53-bit integer
  // mant53 = mant * 2^53 (exact), and take
  //   ceil(q * count) = (mant53 * count + 2^shift - 1) >> shift,
  // shift = 53 - exp.  mant53 * count < 2^117, and shift < 127 whenever the
  // product can reach 1, so 128-bit arithmetic is exact throughout.
  int exp = 0;
  const double mant = std::frexp(q, &exp);
  const auto mant53 = static_cast<unsigned __int128>(std::ldexp(mant, 53));
  const int shift = 53 - exp;  // >= 52 since q <= 1 implies exp <= 1
  std::uint64_t rank = 1;      // q * count < 1 rounds up to the minimum
  if (shift < 127) {
    const unsigned __int128 prod = mant53 * count;
    const unsigned __int128 half_open =
        (static_cast<unsigned __int128>(1) << shift) - 1;
    rank = static_cast<std::uint64_t>((prod + half_open) >> shift);
  }
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  return rank;
}

Time LatencyRecorder::percentile(double q) const {
  if (count_ == 0) return 0;
  // Nearest rank: the smallest k with cumulative(k) >= ceil(q * count).
  const std::uint64_t rank = nearest_rank(q, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // The topmost occupied bucket's upper edge may exceed the exact max;
      // the max is tracked exactly, so clamp to it.
      const Time edge = bucket_upper(i);
      return edge < max_ ? edge : max_;
    }
  }
  return max_;  // unreachable when counts are consistent
}

void LatencyRecorder::merge(const LatencyRecorder& o) {
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
  sum_ = saturating_add(sum_, o.sum_);
  if (o.max_ > max_) max_ = o.max_;
}

PhasedLatency::PhasedLatency(std::vector<std::string> phases) {
  phases_.reserve(phases.size());
  for (auto& name : phases) phases_.emplace_back(std::move(name),
                                                 LatencyRecorder{});
}

void PhasedLatency::record(std::size_t phase, Time v) {
  EMUSIM_CHECK(phase < phases_.size());
  overall_.record(v);
  phases_[phase].second.record(v);
}

void PhasedLatency::merge(const PhasedLatency& o) {
  EMUSIM_CHECK(phases_.size() == o.phases_.size());
  overall_.merge(o.overall_);
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    EMUSIM_CHECK(phases_[i].first == o.phases_[i].first);
    phases_[i].second.merge(o.phases_[i].second);
  }
}

}  // namespace emusim::serve
