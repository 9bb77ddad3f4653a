// The online serving drivers: replay a generated request stream against the
// B+-tree forest on one of the machine models, producing tail-latency and
// sustained-throughput accounting on the simulated clock.
//
// Batch semantics (shared by both backends): the stream arrives in fixed-
// size batches; every request in a batch shares the batch's arrival instant.
// A batch dispatches at max(previous batch completion, arrival) — the server
// is closed-loop per batch (bounded backlog) but open-loop across batches,
// so a slow batch inflates the latency of the queued one behind it and tail
// behaviour under overload is preserved.  Request latency = completion time
// - batch arrival time.  Both frontends wait for an arrival with
// sim::Engine::sleep_until (no event when the batch is already due), record
// counts and latencies straight into their ServeResult, and end in
// finish_result.
//
// Backend contrast (the point of the experiment):
//
//   serve_emu  — one threadlet per request, remote-spawned directly at the
//                family's owning nodelet.  No locks anywhere: a family is
//                mutated only on its nodelet, and host mutations are
//                instantaneous between suspension points.  Skew concentrates
//                threads onto one nodelet, so its cores/channel queue —
//                p50 and p99 rise together (the paper's locality-
//                insensitivity claim, stated over latency).
//   serve_xeon — a worker pool per batch (xeon::run_batch: worker w on core
//                w % cores drains requests w, w + nw, ... in order).
//                Lookups/scans traverse latch-free (the leaf chain plays
//                the B-link role), inserts take the family's writer latch
//                for the leaf edit.  Skew funnels inserts through one latch,
//                so the tail blows up while the (cache-warmed) median
//                improves — p99 diverges from p50.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "emu/config.hpp"
#include "serve/btree.hpp"
#include "serve/latency.hpp"
#include "serve/request_gen.hpp"
#include "xeon/config.hpp"

namespace emusim::serve {

/// Latency phases, indexed by OpKind.
inline std::vector<std::string> op_phases() {
  return {"lookup", "insert", "scan"};
}

struct ServeParams {
  StreamParams stream;
  int fanout = 8;        ///< max keys per tree node
  /// Subtree families (key ranges).  The Emu driver ignores this and uses
  /// one family per nodelet; the Xeon driver defaults to 8 (the chick's
  /// nodelet count) so both backends serve the same partitioning.
  int num_families = 8;
  int threads = 8;  ///< Xeon worker threads per batch
  /// Touch every tree node once before the measured stream (and start the
  /// arrival clock after).  A live index is warm; without this the Xeon
  /// comparison measures compulsory cache misses, and a skewed stream —
  /// touching fewer distinct nodes — would look *better* at the tail than
  /// a uniform one.
  bool warmup = true;
};

struct ServeResult {
  Time elapsed = 0;          ///< simulated time from first dispatch to drain
  std::uint64_t ops = 0;     ///< requests served
  double mops_per_sec = 0;   ///< sustained throughput on the simulated clock
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;     ///< lookups that found their key (should: all)
  std::uint64_t inserts = 0;
  std::uint64_t added = 0;    ///< inserts that created a new key
  std::uint64_t scans = 0;
  std::uint64_t scanned = 0;  ///< elements visited by scans
  /// Skew counter: ops per key range (== per family), the per-key-range
  /// view of the hot-range behaviour.
  std::vector<std::uint64_t> range_ops;
  PhasedLatency lat{op_phases()};
  bool verified = false;  ///< final tree contents + invariants + hit checks
  std::string error;      ///< first verification failure, when !verified
};

ServeResult serve_emu(const emu::SystemConfig& cfg, const ServeParams& p);
ServeResult serve_xeon(const xeon::SystemConfig& cfg, const ServeParams& p);

/// Check the forest holds exactly the preloaded even keys plus the stream's
/// insert keys, every one mapping to value_of_key, with clean invariants.
/// Order-independent: upserts are value-idempotent, so any interleaving of
/// the stream must converge to this state.
bool verify_forest(const BTreeForest& forest,
                   const std::vector<Request>& stream, std::string* err);

/// The end of both drivers: fill in `r`'s clock, throughput and range_ops
/// around the counts and latencies the driver recorded into it, then verify
/// the forest, every lookup's hit and one latency sample per request.
void finish_result(Time elapsed, const BTreeForest& forest,
                   const std::vector<Request>& stream, ServeResult* r);

}  // namespace emusim::serve
