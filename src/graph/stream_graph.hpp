// Streaming graph updates with concurrent queries — the STINGER-style
// workload the Emu follow-on papers ("Programming Strategies for Irregular
// Algorithms on the Emu Chick") used to characterize the machine beyond
// static kernels.
//
// The functional structure is a nodelet-striped adjacency: vertex v's edge
// list lives on nodelet v % nodelets (its *home*), held as append-ordered
// edge blocks.  A generated workload interleaves epochs of concurrent
// edge-insert batches with query phases (degree probes + full BFS), and a
// driver per backend executes it on the simulated clock:
//
//   emu::  — one threadlet per inserted edge, born at the source vertex's
//            home nodelet: it scans the list there, CAS-appends the new
//            half-edge, then migrates to the destination's home for the
//            mirror half.  All mutation happens on the owning nodelet's
//            event-queue shard, so insertion needs no host-side lock and its order
//            is fixed by the event schedule (the serve_emu pattern).
//   xeon:: — a worker pool drains each batch, taking per-vertex-stripe
//            writer latches (lowest stripe first, so two-latch inserts
//            cannot deadlock) around the scan-and-append critical section —
//            the serialization a lock-based shared-memory STINGER pays.
//
// Every flush epoch the driver snapshots the streamed structure and checks
// it against a from-scratch batch-built graph::Graph over the same insert
// prefix, and every BFS answer against graph::bfs_reference on that
// snapshot — the oracle contract tests/test_stream_graph.cpp re-asserts
// independently.  Per-phase latency (insert / degree / bfs) feeds the same
// serve::PhasedLatency recorder the serving bench uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "emu/config.hpp"
#include "graph/graph.hpp"
#include "serve/latency.hpp"
#include "xeon/config.hpp"

namespace emusim::graph {

/// Phase names for the streaming PhasedLatency recorder.
std::vector<std::string> stream_phases();
enum class StreamPhase : std::size_t { insert = 0, degree = 1, bfs = 2 };

struct StreamEdge {
  std::uint32_t u = 0, v = 0;
};

/// Endpoint distribution of generated inserts: uniform, or RMAT-style
/// skewed (hub vertices collect a disproportionate share of edges — the
/// hard case for latch contention and load balance).
enum class EdgeDist { uniform, rmat };
const char* to_string(EdgeDist d);

struct StreamParams {
  std::size_t num_vertices = 1u << 10;
  std::size_t inserts = 1u << 12;  ///< insert ops, duplicates included
  std::size_t epochs = 4;          ///< flush/query epochs
  std::uint32_t batch = 64;        ///< concurrent inserts per dispatch
  EdgeDist dist = EdgeDist::uniform;
  /// Fraction of insert ops that re-insert an already-streamed edge (a real
  /// update stream is full of them); they must commit as no-ops.
  double duplicate_fraction = 0.1;
  std::uint32_t degree_queries = 64;  ///< per epoch
  std::uint32_t bfs_queries = 1;      ///< per epoch
  int threads = 16;                   ///< xeon worker pool width
  std::uint64_t seed = 12;
};

/// The deterministic op stream: inserts split evenly over epochs, plus the
/// per-epoch query sets.  Generated once and shared by both backends, so
/// cross-backend agreement checks compare like with like.
struct StreamWorkload {
  std::size_t num_vertices = 0;
  std::size_t epochs = 0;
  std::vector<StreamEdge> inserts;
  std::vector<std::vector<std::uint32_t>> degree_queries;  ///< per epoch
  std::vector<std::vector<std::uint32_t>> bfs_sources;     ///< per epoch

  std::size_t epoch_begin(std::size_t e) const {
    return e * inserts.size() / epochs;
  }
  std::size_t epoch_end(std::size_t e) const {
    return (e + 1) * inserts.size() / epochs;
  }
};

StreamWorkload make_stream_workload(const StreamParams& p);

/// Host-side streaming adjacency, striped by vertex home.  Append-ordered
/// per-vertex lists with O(degree) duplicate rejection — the functional
/// mirror of the simulated edge blocks.  Both backend drivers mutate one of
/// these through insert_half; under the sharded emu engine each vertex's
/// list is touched only by the shard owning its home nodelet.
class StreamGraph {
 public:
  StreamGraph(std::size_t num_vertices, int nodelets);

  std::size_t num_vertices() const { return adj_.size(); }
  int nodelets() const { return nodelets_; }
  int home(std::uint32_t v) const {
    return static_cast<int>(v % static_cast<std::uint32_t>(nodelets_));
  }

  /// Append v to u's list unless present.  Returns true when appended.
  bool insert_half(std::uint32_t u, std::uint32_t v);
  std::size_t degree(std::uint32_t u) const {
    return adj_[u].size();
  }
  const std::vector<std::uint32_t>& neighbors(std::uint32_t u) const {
    return adj_[u];
  }
  /// Committed half-edges (2x the undirected edge count).
  std::uint64_t half_edges() const { return half_edges_; }

  /// Sorted-CSR snapshot of the current state; equal (row_ptr and adj) to
  /// graph::from_edge_list over the committed inserts.
  Graph snapshot() const;

 private:
  int nodelets_;
  std::vector<std::vector<std::uint32_t>> adj_;
  std::uint64_t half_edges_ = 0;
};

struct StreamResult {
  Time elapsed = 0;      ///< whole run (inserts + queries), simulated
  Time insert_time = 0;  ///< simulated time inside insert phases only
  std::uint64_t inserts = 0;     ///< insert ops committed
  std::uint64_t new_edges = 0;   ///< distinct undirected edges created
  std::uint64_t degree_queries = 0;
  std::uint64_t bfs_queries = 0;
  double inserts_per_sec = 0.0;  ///< inserts / insert_time
  double ops_per_sec = 0.0;      ///< all ops / elapsed
  std::uint64_t migrations = 0;  ///< emu only
  serve::PhasedLatency lat{stream_phases()};
  bool verified = false;
  std::string error;
};

StreamResult stream_emu(const emu::SystemConfig& cfg, const StreamParams& p);
StreamResult stream_xeon(const xeon::SystemConfig& cfg,
                         const StreamParams& p);

}  // namespace emusim::graph
