// Unit tests for the online serving frontend: the deterministic request
// generator, the log-bucketed latency recorder, the B+-tree forest, and the
// end-to-end serving drivers on both machine models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "emu/config.hpp"
#include "emu/machine.hpp"
#include "serve/service.hpp"
#include "sim/random.hpp"
#include "xeon/config.hpp"

namespace {

using namespace emusim;
using serve::Arrival;
using serve::BTreeFamily;
using serve::BTreeForest;
using serve::LatencyRecorder;
using serve::OpKind;
using serve::PhasedLatency;
using serve::Request;
using serve::StreamParams;
using serve::ZipfSampler;

// --- request generator -----------------------------------------------------

TEST(RequestGen, ZipfEmpiricalFrequenciesMatchTheory) {
  const std::uint64_t n = 1024;
  const double theta = 0.99;
  ZipfSampler zipf(n, theta);
  double harmonic = 0.0;
  for (std::uint64_t r = 1; r <= n; ++r) {
    harmonic += 1.0 / std::pow(static_cast<double>(r), theta);
  }
  const int draws = 200000;
  std::vector<int> counts(8, 0);
  sim::Rng rng(42);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t r = zipf.rank(rng.uniform());
    ASSERT_LT(r, n);
    if (r < counts.size()) ++counts[static_cast<std::size_t>(r)];
  }
  // The head ranks carry enough mass for tight relative bounds.
  for (std::size_t r = 0; r < counts.size(); ++r) {
    const double expect =
        1.0 / std::pow(static_cast<double>(r + 1), theta) / harmonic;
    const double emp = static_cast<double>(counts[r]) / draws;
    EXPECT_NEAR(emp, expect, 0.1 * expect)
        << "rank " << r << ": empirical " << emp << " vs theoretical "
        << expect;
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
}

TEST(RequestGen, StreamIsAPureFunctionOfParams) {
  StreamParams p;
  p.process = Arrival::zipf;
  p.requests = 512;
  p.key_space = 1 << 10;
  const auto a = serve::generate_stream(p);
  const auto b = serve::generate_stream(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].key, b[i].key);
  }
  p.seed = 2;
  const auto c = serve::generate_stream(p);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].key != c[i].key || a[i].arrival != c[i].arrival;
  }
  EXPECT_TRUE(differs) << "seed change left the stream untouched";
}

TEST(RequestGen, StreamStructureAndKeyParity) {
  StreamParams p;
  p.requests = 640;
  p.batch = 32;
  p.key_space = 1 << 10;
  const auto s = serve::generate_stream(p);
  ASSERT_EQ(s.size(), p.requests);
  int lookups = 0, inserts = 0, scans = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LT(s[i].key, p.key_space);
    if (i > 0) {
      EXPECT_GE(s[i].arrival, s[i - 1].arrival);
    }
    // Whole batches share one arrival instant.
    if (i % p.batch != 0) {
      EXPECT_EQ(s[i].arrival, s[i - 1].arrival);
    }
    switch (s[i].op) {
      case OpKind::lookup:
        ++lookups;
        EXPECT_EQ(s[i].key % 2, 0u);
        break;
      case OpKind::insert:
        ++inserts;
        EXPECT_EQ(s[i].key % 2, 1u);
        break;
      case OpKind::scan:
        ++scans;
        EXPECT_EQ(s[i].key % 2, 0u);
        EXPECT_EQ(s[i].scan_len, p.scan_len);
        break;
    }
  }
  // 70/20/10 mix, loosely (640 requests).
  EXPECT_NEAR(lookups, 0.70 * 640, 60);
  EXPECT_NEAR(inserts, 0.20 * 640, 50);
  EXPECT_NEAR(scans, 0.10 * 640, 40);
}

TEST(RequestGen, BurstyArrivalsStayInsideTheOnWindow) {
  StreamParams p;
  p.process = Arrival::bursty;
  p.requests = 2048;
  p.mean_interarrival = ns(500);
  const Time period = p.burst_on + p.burst_off;
  const auto s = serve::generate_stream(p);
  for (const Request& r : s) {
    EXPECT_LT(r.arrival % period, p.burst_on)
        << "arrival " << r.arrival << " lands in the off-window";
  }
}

TEST(RequestGen, ClosedLoopKeepsKeySequenceAndCollapsesArrivals) {
  StreamParams open;
  open.process = Arrival::zipf;
  open.requests = 256;
  StreamParams closed = open;
  closed.mean_interarrival = 0;
  const auto a = serve::generate_stream(open);
  const auto b = serve::generate_stream(closed);
  ASSERT_EQ(a.size(), b.size());
  const std::size_t batches = open.requests / open.batch;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Same RNG draw sequence: identical keys and ops, only timing differs.
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].op, b[i].op);
    // Closed loop: gaps clamp to 1 ps, so every batch is available
    // essentially immediately.
    EXPECT_LE(b[i].arrival, static_cast<Time>(batches));
  }
}

// --- latency recorder ------------------------------------------------------

TEST(Latency, PercentilesMatchSortedOracleWithinBucketResolution) {
  LatencyRecorder rec;
  std::vector<Time> vals;
  sim::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes so several octaves are exercised.
    const Time v = static_cast<Time>(rng.below(1000000000ULL)) + 1;
    vals.push_back(v);
    rec.record(v);
  }
  std::sort(vals.begin(), vals.end());
  EXPECT_EQ(rec.count(), vals.size());
  EXPECT_EQ(rec.max(), vals.back());
  for (double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(vals.size())));
    if (rank == 0) rank = 1;
    const Time oracle = vals[rank - 1];
    const Time got = rec.percentile(q);
    EXPECT_GE(got, oracle) << "q=" << q;
    EXPECT_LE(got, oracle + oracle / 32 + 1) << "q=" << q;
  }
  EXPECT_EQ(rec.percentile(1.0), vals.back());
}

TEST(Latency, BucketEdgesCoverPowerOfTwoBoundaries) {
  for (Time v : {Time{0}, Time{1}, Time{31}, Time{32}, Time{33}, Time{63},
                 Time{64}, Time{65}, Time{(1 << 20) - 1}, Time{1 << 20},
                 Time{(1 << 20) + 1}, Time{1} << 40,
                 (Time{1} << 40) + 12345}) {
    const std::size_t i = LatencyRecorder::bucket_of(v);
    ASSERT_LT(i, LatencyRecorder::kNumBuckets) << v;
    const Time upper = LatencyRecorder::bucket_upper(i);
    EXPECT_GE(upper, v) << v;
    // Sub-32 values get exact unit buckets; larger ones a <=1/32 overshoot.
    if (v < static_cast<Time>(LatencyRecorder::kSubBuckets)) {
      EXPECT_EQ(upper, v);
    } else {
      EXPECT_LE(upper - v, v / 32 + 1) << v;
    }
    // Edges are monotone in the bucket index where defined.
    if (i + 1 < LatencyRecorder::kNumBuckets) {
      EXPECT_GT(LatencyRecorder::bucket_upper(i + 1), upper);
    }
  }
}

TEST(Latency, NearestRankMatchesIntegerOracleAtSmallCounts) {
  // At these magnitudes the double product is exact, so a long-double
  // oracle of ceil(q * count) is trustworthy; the integer path must agree.
  for (std::uint64_t count : {1ULL, 2ULL, 3ULL, 10ULL, 100ULL, 9973ULL}) {
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      const auto oracle = static_cast<std::uint64_t>(
          std::ceil(static_cast<long double>(q) *
                    static_cast<long double>(count)));
      const std::uint64_t want = oracle == 0 ? 1 : oracle;
      EXPECT_EQ(LatencyRecorder::nearest_rank(q, count), want)
          << "q=" << q << " count=" << count;
    }
  }
  EXPECT_EQ(LatencyRecorder::nearest_rank(0.95, 100), 95u);
  EXPECT_EQ(LatencyRecorder::nearest_rank(0.5, 7), 4u);
  EXPECT_EQ(LatencyRecorder::nearest_rank(1e-9, 100), 1u);
}

TEST(Latency, NearestRankStaysExactAtExtremeCounts) {
  // The seed computed ceil(q * count) in doubles; at counts near 2^53 the
  // product loses integer resolution and misranks.  The decomposed integer
  // path must stay exact for every uint64 count.
  const std::uint64_t big = (1ULL << 53) + 1;
  // double(big) rounds to 2^53, so the old path would return 2^53 here.
  EXPECT_EQ(LatencyRecorder::nearest_rank(1.0, big), big);
  EXPECT_EQ(LatencyRecorder::nearest_rank(1.0, ~0ULL), ~0ULL);
  // q = 0.5 is an exact double: ceil(count / 2) must be exact too.
  EXPECT_EQ(LatencyRecorder::nearest_rank(0.5, (1ULL << 60) + 1),
            (1ULL << 59) + 1);
  EXPECT_EQ(LatencyRecorder::nearest_rank(0.5, (1ULL << 60)), 1ULL << 59);
  // Exact dyadic q at the very top of the range.
  EXPECT_EQ(LatencyRecorder::nearest_rank(0.25, (1ULL << 62) + 3),
            (1ULL << 60) + 1);
  // A sub-normal-small q can never rank past the first sample.
  EXPECT_EQ(LatencyRecorder::nearest_rank(1e-300, ~0ULL), 1u);
  // Ranks clamp into [1, count] even when rounding lands on the edges.
  for (std::uint64_t count : {1ULL, (1ULL << 53) - 1, (1ULL << 53) + 3}) {
    for (double q : {1e-12, 0.5, 1.0}) {
      const std::uint64_t r = LatencyRecorder::nearest_rank(q, count);
      EXPECT_GE(r, 1u);
      EXPECT_LE(r, count);
    }
  }
  EXPECT_EQ(LatencyRecorder::nearest_rank(0.5, 0), 0u);
}

TEST(Latency, BucketUpperSaturatesAtTheTimeRangeInsteadOfWrapping) {
  constexpr Time kMax = std::numeric_limits<Time>::max();
  // The largest representable value round-trips: its bucket's edge clamps
  // exactly to the Time maximum (the unsaturated formula wraps negative).
  const std::size_t top = LatencyRecorder::bucket_of(kMax);
  ASSERT_LT(top, LatencyRecorder::kNumBuckets);
  EXPECT_EQ(LatencyRecorder::bucket_upper(top), kMax);
  // Every edge — including the top octave's tail past any reachable value —
  // is non-negative, monotone non-decreasing, and capped at the maximum.
  Time prev = 0;
  for (std::size_t i = 0; i < LatencyRecorder::kNumBuckets; ++i) {
    const Time upper = LatencyRecorder::bucket_upper(i);
    EXPECT_GE(upper, 0) << "bucket " << i;
    EXPECT_GE(upper, prev) << "bucket " << i;
    EXPECT_LE(upper, kMax) << "bucket " << i;
    prev = upper;
  }
  EXPECT_EQ(LatencyRecorder::bucket_upper(LatencyRecorder::kNumBuckets - 1),
            kMax);
  // Recording the extreme value keeps percentiles finite and exact-capped.
  LatencyRecorder rec;
  rec.record(kMax);
  rec.record(1);
  EXPECT_EQ(rec.percentile(1.0), kMax);
  EXPECT_EQ(rec.p50(), 1);
  EXPECT_EQ(rec.sum(), kMax);
}

TEST(Latency, PhasedRecorderTracksPhasesAndSerializes) {
  PhasedLatency lat(serve::op_phases());
  lat.record(static_cast<std::size_t>(OpKind::lookup), us(1));
  lat.record(static_cast<std::size_t>(OpKind::lookup), us(2));
  lat.record(static_cast<std::size_t>(OpKind::insert), us(10));
  EXPECT_EQ(lat.overall().count(), 3u);
  EXPECT_EQ(lat.phase(0).count(), 2u);
  EXPECT_EQ(lat.phase(1).count(), 1u);
  EXPECT_EQ(lat.phase(2).count(), 0u);
  EXPECT_EQ(lat.phase_name(1), "insert");

  lat.record(static_cast<std::size_t>(OpKind::scan), us(5));
  EXPECT_EQ(lat.overall().count(), 4u);
  EXPECT_EQ(lat.phase(2).count(), 1u);

  // Per-phase tails are what the serving benches' lat_<phase>_p99_us
  // extras report.
  EXPECT_EQ(lat.phase(0).p99(), us(2));
  EXPECT_EQ(lat.phase(1).p99(), us(10));
  EXPECT_EQ(lat.phase(2).p99(), us(5));
  EXPECT_EQ(lat.overall().p99(), us(10));
}

// --- B+-tree forest --------------------------------------------------------

TEST(BTree, ShuffledUpsertsKeepInvariantsAndContents) {
  std::uint64_t next_addr = 0x1000;
  BTreeFamily fam(4, [&next_addr](std::uint64_t bytes) {
    const std::uint64_t a = next_addr;
    next_addr += bytes;
    return a;
  });
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 400; k += 2) keys.push_back(k);
  sim::Rng rng(3);
  rng.shuffle(keys);
  for (std::uint64_t k : keys) {
    const auto out = fam.upsert(k, serve::value_of_key(k));
    EXPECT_TRUE(out.added);
  }
  std::string err;
  ASSERT_TRUE(fam.check_invariants(&err)) << err;
  EXPECT_GT(fam.height(), 1);
  for (std::uint64_t k : keys) {
    std::uint64_t v = 0;
    ASSERT_TRUE(fam.lookup(k, &v)) << k;
    EXPECT_EQ(v, serve::value_of_key(k));
  }
  std::uint64_t v = 0;
  EXPECT_FALSE(fam.lookup(1, &v));

  // Updating an existing key changes the value, not the structure.
  const std::size_t nodes_before = fam.num_nodes();
  const auto upd = fam.upsert(10, 999);
  EXPECT_FALSE(upd.added);
  EXPECT_EQ(fam.num_nodes(), nodes_before);
  ASSERT_TRUE(fam.lookup(10, &v));
  EXPECT_EQ(v, 999u);

  // collect() walks the leaf chain in key order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> all;
  fam.collect(&all);
  ASSERT_EQ(all.size(), keys.size());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].first, all[i].first);
  }

  // A scan plan visits exactly the requested number of elements.
  std::uint32_t planned = 0;
  for (const auto& step : fam.scan_plan(100, 20)) planned += step.elems;
  EXPECT_EQ(planned, 20u);
}

TEST(BTree, ForestPartitionsKeysAndVerifies) {
  auto alloc = [](int, std::uint64_t) { return std::uint64_t{0x100}; };
  BTreeForest forest(8, 1 << 10, 8, alloc);
  EXPECT_EQ(forest.family_of(0), 0);
  EXPECT_EQ(forest.family_of((1 << 10) - 1), 7);
  EXPECT_EQ(forest.family_of(1 << 7), 1);
  forest.preload_even();
  EXPECT_EQ(forest.total_keys(), static_cast<std::uint64_t>(1 << 9));
  std::string err;
  ASSERT_TRUE(forest.check_all(&err)) << err;

  // verify_forest accepts the preloaded state against an empty stream...
  EXPECT_TRUE(serve::verify_forest(forest, {}, &err)) << err;
  // ...and rejects a forest with a stray key the stream never inserted.
  forest.family(3).upsert(3 * (1 << 7) + 1,
                          serve::value_of_key(3 * (1 << 7) + 1));
  EXPECT_FALSE(serve::verify_forest(forest, {}, &err));
  EXPECT_FALSE(err.empty());
}

// --- serving drivers -------------------------------------------------------

serve::ServeParams small_params(Arrival a) {
  serve::ServeParams p;
  p.stream.process = a;
  p.stream.requests = 256;
  p.stream.batch = 16;
  p.stream.key_space = 1 << 9;
  return p;
}

TEST(ServeDrivers, EmuServesVerifiablyAndDeterministically) {
  const auto cfg = emu::SystemConfig::chick_hw();
  const auto p = small_params(Arrival::zipf);
  const auto r = serve::serve_emu(cfg, p);
  ASSERT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.ops, p.stream.requests);
  EXPECT_EQ(r.lat.overall().count(), r.ops);
  EXPECT_GT(r.mops_per_sec, 0.0);
  EXPECT_GT(r.elapsed, 0);
  ASSERT_EQ(r.range_ops.size(), 8u);
  std::uint64_t range_total = 0;
  for (auto c : r.range_ops) range_total += c;
  EXPECT_EQ(range_total, r.ops);
  // Zipf concentrates on the lowest key range.
  EXPECT_GT(r.range_ops[0], r.ops / 2);

  const auto r2 = serve::serve_emu(cfg, p);
  EXPECT_EQ(r2.elapsed, r.elapsed);
  EXPECT_DOUBLE_EQ(r2.mops_per_sec, r.mops_per_sec);
  EXPECT_EQ(r2.lat.overall().p99(), r.lat.overall().p99());
}

TEST(ServeDrivers, XeonServesVerifiablyAndDeterministically) {
  const auto cfg = xeon::SystemConfig::sandy_bridge();
  const auto p = small_params(Arrival::uniform);
  const auto r = serve::serve_xeon(cfg, p);
  ASSERT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.ops, p.stream.requests);
  EXPECT_EQ(r.lat.overall().count(), r.ops);
  EXPECT_GT(r.mops_per_sec, 0.0);
  ASSERT_EQ(r.range_ops.size(), 8u);

  const auto r2 = serve::serve_xeon(cfg, p);
  EXPECT_EQ(r2.elapsed, r.elapsed);
  EXPECT_EQ(r2.lat.overall().p99(), r.lat.overall().p99());
}

TEST(ServeDrivers, BackendsAgreeOnTheStreamSkewCounter) {
  // range_ops counts ops per key range on the *same* generated stream, so
  // the two machine models must agree exactly.
  const auto pe = small_params(Arrival::zipf);
  const auto re = serve::serve_emu(emu::SystemConfig::chick_hw(), pe);
  const auto rx = serve::serve_xeon(xeon::SystemConfig::sandy_bridge(), pe);
  ASSERT_TRUE(re.verified) << re.error;
  ASSERT_TRUE(rx.verified) << rx.error;
  EXPECT_EQ(re.range_ops, rx.range_ops);
  EXPECT_EQ(re.lookups, rx.lookups);
  EXPECT_EQ(re.inserts, rx.inserts);
  EXPECT_EQ(re.scans, rx.scans);
}

/// Exact results of one serving run: the clock, the tails and the counts.
struct ServePin {
  Time elapsed;
  Time p99, lookup_p99, insert_p99, scan_p99;
  std::uint64_t lookups, inserts, scans, added;
};

void expect_pinned(const serve::ServeResult& r, const ServePin& pin) {
  ASSERT_TRUE(r.verified) << r.error;
  EXPECT_EQ(r.elapsed, pin.elapsed);
  EXPECT_EQ(r.lat.overall().p99(), pin.p99);
  EXPECT_EQ(r.lat.phase(0).p99(), pin.lookup_p99);
  EXPECT_EQ(r.lat.phase(1).p99(), pin.insert_p99);
  EXPECT_EQ(r.lat.phase(2).p99(), pin.scan_p99);
  EXPECT_EQ(r.lookups, pin.lookups);
  EXPECT_EQ(r.inserts, pin.inserts);
  EXPECT_EQ(r.scans, pin.scans);
  EXPECT_EQ(r.added, pin.added);
  EXPECT_EQ(r.hits, r.lookups);
}

// Both drivers on the machines perfbench's serve_mix runs, the two-node
// Emu (two engine shards under time windows) included.  The values are
// exact: a change to dispatch order or the arrival wait moves them, and one
// extra engine event per batch moves the Emu event counts.
TEST(ServeDrivers, MatchesPinnedResults) {
  const auto zipf = small_params(Arrival::zipf);
  const auto uniform = small_params(Arrival::uniform);
  {
    SCOPED_TRACE("serve_emu chick_hw zipf");
    emu::take_run_telemetry();
    expect_pinned(serve::serve_emu(emu::SystemConfig::chick_hw(), zipf),
                  {430046941, 55574527, 54525951, 59558017, 60186625, 181, 47,
                   28, 28});
    EXPECT_EQ(emu::take_run_telemetry().engine_events, 2154u);
  }
  {
    SCOPED_TRACE("serve_emu fullspeed_multinode(2) uniform");
    emu::take_run_telemetry();
    expect_pinned(
        serve::serve_emu(emu::SystemConfig::fullspeed_multinode(2), uniform),
        {392253689, 5767167, 5636095, 5324589, 5790783, 181, 47, 28, 41});
    EXPECT_EQ(emu::take_run_telemetry().engine_events, 2659u);
  }
  {
    SCOPED_TRACE("serve_xeon sandy_bridge uniform");
    expect_pinned(serve::serve_xeon(xeon::SystemConfig::sandy_bridge(),
                                    uniform),
                  {386460104, 458751, 368639, 515390, 420640, 181, 47, 28, 41});
  }
}

}  // namespace
