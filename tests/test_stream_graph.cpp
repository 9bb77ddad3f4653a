// Oracle cross-checks for the streaming graph: the host StreamGraph against
// the batch-built graph::from_edge_list oracle, and both timed drivers
// against the host structure (and each other) on small deterministic
// workloads — including on multi-node sharded machines.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "emu/machine.hpp"
#include "graph/stream_graph.hpp"

namespace emusim::graph {
namespace {

std::vector<std::pair<std::uint32_t, std::uint32_t>> as_pairs(
    const std::vector<StreamEdge>& edges, std::size_t begin,
    std::size_t end) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    out.emplace_back(edges[i].u, edges[i].v);
  }
  return out;
}

StreamParams small_params(EdgeDist dist) {
  StreamParams p;
  p.num_vertices = 128;
  p.inserts = 512;
  p.epochs = 3;
  p.batch = 32;
  p.dist = dist;
  p.degree_queries = 16;
  p.bfs_queries = 1;
  p.threads = 4;
  p.seed = 7;
  return p;
}

TEST(StreamWorkload, DeterministicAndInRange) {
  const StreamParams p = small_params(EdgeDist::rmat);
  const StreamWorkload a = make_stream_workload(p);
  const StreamWorkload b = make_stream_workload(p);
  ASSERT_EQ(a.inserts.size(), p.inserts);
  ASSERT_EQ(a.epochs, p.epochs);
  ASSERT_EQ(a.degree_queries.size(), p.epochs);
  ASSERT_EQ(a.bfs_sources.size(), p.epochs);
  for (std::size_t i = 0; i < a.inserts.size(); ++i) {
    EXPECT_EQ(a.inserts[i].u, b.inserts[i].u);
    EXPECT_EQ(a.inserts[i].v, b.inserts[i].v);
    EXPECT_LT(a.inserts[i].u, p.num_vertices);
    EXPECT_LT(a.inserts[i].v, p.num_vertices);
    EXPECT_NE(a.inserts[i].u, a.inserts[i].v) << "self loop at op " << i;
  }
  for (std::size_t e = 0; e < p.epochs; ++e) {
    EXPECT_EQ(a.degree_queries[e].size(), p.degree_queries);
    EXPECT_EQ(a.bfs_sources[e].size(), p.bfs_queries);
    EXPECT_EQ(a.degree_queries[e], b.degree_queries[e]);
    EXPECT_EQ(a.bfs_sources[e], b.bfs_sources[e]);
  }
  // Epoch boundaries tile [0, inserts) exactly.
  EXPECT_EQ(a.epoch_begin(0), 0u);
  EXPECT_EQ(a.epoch_end(p.epochs - 1), p.inserts);
  for (std::size_t e = 0; e + 1 < p.epochs; ++e) {
    EXPECT_EQ(a.epoch_end(e), a.epoch_begin(e + 1));
  }
}

TEST(StreamWorkload, DuplicateFractionProducesDuplicates) {
  StreamParams p = small_params(EdgeDist::uniform);
  p.inserts = 2048;
  const StreamWorkload w = make_stream_workload(p);
  StreamGraph g(p.num_vertices, 8);
  std::uint64_t dups = 0;
  for (const StreamEdge& e : w.inserts) {
    const bool a = g.insert_half(e.u, e.v);
    const bool b = g.insert_half(e.v, e.u);
    EXPECT_EQ(a, b) << "half-edge commit asymmetry for (" << e.u << ", "
                    << e.v << ")";
    if (!a) ++dups;
  }
  // duplicate_fraction = 0.1 re-emits prior ops; random collisions add a
  // few more.  Anything in a broad band around 10% is healthy.
  const double share = static_cast<double>(dups) / p.inserts;
  EXPECT_GT(share, 0.03);
  EXPECT_LT(share, 0.5);
}

TEST(StreamGraphHost, MatchesBatchOracleAfterEveryEpoch) {
  for (const EdgeDist dist : {EdgeDist::uniform, EdgeDist::rmat}) {
    const StreamParams p = small_params(dist);
    const StreamWorkload w = make_stream_workload(p);
    StreamGraph sg(p.num_vertices, 8);
    for (std::size_t e = 0; e < p.epochs; ++e) {
      for (std::size_t i = w.epoch_begin(e); i < w.epoch_end(e); ++i) {
        sg.insert_half(w.inserts[i].u, w.inserts[i].v);
        sg.insert_half(w.inserts[i].v, w.inserts[i].u);
      }
      const Graph snap = sg.snapshot();
      const Graph oracle = from_edge_list(
          p.num_vertices, as_pairs(w.inserts, 0, w.epoch_end(e)));
      ASSERT_EQ(snap.row_ptr, oracle.row_ptr)
          << to_string(dist) << ": row_ptr diverged after epoch " << e;
      ASSERT_EQ(snap.adj, oracle.adj)
          << to_string(dist) << ": adjacency diverged after epoch " << e;
      EXPECT_TRUE(validate(snap));
      EXPECT_EQ(sg.half_edges(), snap.adj.size());
    }
  }
}

TEST(StreamGraphHost, DuplicateInsertIsANoOp) {
  StreamGraph sg(8, 4);
  EXPECT_TRUE(sg.insert_half(1, 2));
  EXPECT_TRUE(sg.insert_half(2, 1));
  EXPECT_EQ(sg.half_edges(), 2u);
  EXPECT_FALSE(sg.insert_half(1, 2));
  EXPECT_FALSE(sg.insert_half(2, 1));
  EXPECT_EQ(sg.half_edges(), 2u);
  EXPECT_EQ(sg.degree(1), 1u);
  EXPECT_EQ(sg.degree(2), 1u);
}

TEST(StreamGraphHost, HomeStripesByVertexId) {
  StreamGraph sg(64, 8);
  for (std::uint32_t v = 0; v < 64; ++v) {
    EXPECT_EQ(sg.home(v), static_cast<int>(v % 8));
  }
}

// The timed drivers verify themselves against the batch oracle after every
// epoch (StreamResult::verified); these tests assert that contract holds on
// both backends and that the backends commit identical structure.
TEST(StreamDrivers, EmuVerifiedOnBothDistributions) {
  const auto cfg = emu::SystemConfig::chick_hw();
  for (const EdgeDist dist : {EdgeDist::uniform, EdgeDist::rmat}) {
    const StreamParams p = small_params(dist);
    const StreamResult r = stream_emu(cfg, p);
    EXPECT_TRUE(r.verified) << to_string(dist) << ": " << r.error;
    EXPECT_EQ(r.inserts, p.inserts);
    EXPECT_GT(r.new_edges, 0u);
    EXPECT_LT(r.new_edges, r.inserts);  // duplicates must no-op
    EXPECT_GT(r.migrations, 0u);
    EXPECT_GT(r.inserts_per_sec, 0.0);
    EXPECT_EQ(r.lat.overall().count(),
              r.inserts + r.degree_queries + r.bfs_queries);
  }
}

TEST(StreamDrivers, XeonVerifiedOnBothDistributions) {
  const auto cfg = xeon::SystemConfig::sandy_bridge();
  for (const EdgeDist dist : {EdgeDist::uniform, EdgeDist::rmat}) {
    const StreamParams p = small_params(dist);
    const StreamResult r = stream_xeon(cfg, p);
    EXPECT_TRUE(r.verified) << to_string(dist) << ": " << r.error;
    EXPECT_EQ(r.inserts, p.inserts);
    EXPECT_GT(r.new_edges, 0u);
    EXPECT_GT(r.inserts_per_sec, 0.0);
  }
}

TEST(StreamDrivers, BackendsCommitIdenticalStructure) {
  const StreamParams p = small_params(EdgeDist::rmat);
  const StreamResult re = stream_emu(emu::SystemConfig::chick_hw(), p);
  const StreamResult rx = stream_xeon(xeon::SystemConfig::sandy_bridge(), p);
  ASSERT_TRUE(re.verified) << re.error;
  ASSERT_TRUE(rx.verified) << rx.error;
  // Same workload, same dedup semantics: the committed edge set (hence the
  // distinct-edge count) must agree exactly.
  EXPECT_EQ(re.new_edges, rx.new_edges);
  EXPECT_EQ(re.degree_queries, rx.degree_queries);
  EXPECT_EQ(re.bfs_queries, rx.bfs_queries);
}

// On a two-node machine (two engine shards under time windows) the driver
// verifies, and a second run reproduces the first exactly.
TEST(StreamDrivers, EmuMultinodeVerifiesAndRepeats) {
  auto cfg = emu::SystemConfig::fullspeed_multinode(2);
  StreamParams p = small_params(EdgeDist::rmat);
  p.inserts = 256;

  const StreamResult first = stream_emu(cfg, p);
  const StreamResult again = stream_emu(cfg, p);

  ASSERT_TRUE(first.verified) << first.error;
  ASSERT_TRUE(again.verified) << again.error;
  EXPECT_EQ(first.elapsed, again.elapsed);
  EXPECT_EQ(first.insert_time, again.insert_time);
  EXPECT_EQ(first.new_edges, again.new_edges);
  EXPECT_EQ(first.migrations, again.migrations);
}

}  // namespace
}  // namespace emusim::graph
