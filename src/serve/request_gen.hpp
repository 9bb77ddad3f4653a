// Deterministic request-stream generation for the online serving frontend.
//
// A stream is a sequence of timestamped index operations (point lookup,
// upsert-insert, short range scan) over a bounded key domain, arriving in
// fixed-size batches.  The arrival *process* sets when batches arrive; the
// key *distribution* sets where they land:
//
//   uniform — Poisson batch arrivals, uniformly random keys.  The
//             provisioning baseline.
//   zipf    — Poisson batch arrivals, Zipf(theta)-ranked keys with rank 0
//             at key 0, so the popular ranks cluster into the lowest key
//             range (one nodelet's subtree family owns the hot range).
//   bursty  — on/off batch arrivals: batches arrive only inside the "on"
//             window of each on+off period (at the same within-window
//             rate), uniform keys.  Models front-end traffic bursts.
//
// Every choice derives from sim::Rng over an explicit seed, so a stream is
// a pure function of its parameters: the same (params, seed) produce a
// byte-identical stream on every platform — the property the --jobs
// determinism gate relies on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace emusim::serve {

enum class OpKind : std::uint8_t { lookup = 0, insert = 1, scan = 2 };
inline constexpr std::size_t kNumOpKinds = 3;
const char* to_string(OpKind k);

enum class Arrival : std::uint8_t { uniform, zipf, bursty };
const char* to_string(Arrival a);
/// Parse "uniform" / "zipf" / "bursty"; returns false on anything else.
bool arrival_from_string(const std::string& s, Arrival* out);

struct Request {
  Time arrival = 0;  ///< batch arrival instant (shared by the whole batch)
  OpKind op = OpKind::lookup;
  std::uint64_t key = 0;
  std::uint32_t scan_len = 0;  ///< elements to scan (scan ops only)
};

struct StreamParams {
  Arrival process = Arrival::uniform;
  std::size_t requests = 1 << 12;  ///< total; rounded down to whole batches
  std::size_t batch = 32;          ///< requests per batch
  std::uint64_t key_space = 1 << 14;  ///< keys are in [0, key_space)
  double zipf_theta = 0.99;           ///< skew exponent (zipf process only)
  /// Mean inter-arrival gap between *requests*; batches arrive every
  /// batch * mean_interarrival on average.  The default keeps the offered
  /// load below the Emu chick's saturation point so latency measures
  /// queueing, not backlog.  Zero means closed loop: every batch is
  /// available immediately and dispatches back-to-back (used for the
  /// batch-size/throughput sweep, where only throughput is meaningful).
  Time mean_interarrival = us(2.5);
  /// Bursty process: batches arrive only inside [0, burst_on) of every
  /// burst_on + burst_off period, at the same within-window rate.
  Time burst_on = us(40);
  Time burst_off = us(120);
  // Op mix, in percent (must sum to 100).
  int lookup_pct = 70;
  int insert_pct = 20;
  int scan_pct = 10;
  std::uint32_t scan_len = 16;
  std::uint64_t seed = 1;
};

/// Zipf(theta) sampler over ranks [0, n) by CDF inversion: build once
/// (O(n)), sample with a binary search.  Deterministic for a given (n,
/// theta) — no rejection loops, no platform-dependent math beyond pow().
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);
  /// Rank for a uniform u in [0, 1); rank 0 is the most popular.
  std::uint64_t rank(double u) const;
  std::uint64_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  ///< cdf_[r] = P(rank <= r)
};

/// Generate the full request stream for `p` (p.requests rounded down to a
/// whole number of batches; at least one batch).  Arrivals are
/// nondecreasing.  Lookup and scan keys are clamped to the preloaded (even)
/// key grid; insert keys target the odd keys between them, so inserts grow
/// leaves and eventually split them.
std::vector<Request> generate_stream(const StreamParams& p);

/// The value every key must map to — shared by the loader, the insert path,
/// and the verifier, so any interleaving of upserts converges to the same
/// tree contents.
std::uint64_t value_of_key(std::uint64_t key);

}  // namespace emusim::serve
