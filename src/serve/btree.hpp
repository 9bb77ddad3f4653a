// B+-tree forest striped over the nodelets — the ordered-index workload for
// the online serving frontend.
//
// The key domain [0, key_space) is cut into num_families contiguous ranges,
// one independent B+-tree ("subtree family") per range.  On the Emu backend
// each family's nodes live on one nodelet (the paper's malloc_2d layout: an
// explicit per-nodelet chunk of the structure), so every operation on a key
// migrates to the owning nodelet and runs shard-local from then on — skew in
// the key distribution becomes skew in per-nodelet traffic, directly visible
// in the per-nodelet counter tracks.  On the Xeon backend the same forest is
// bump-allocated into the interleaved physical address space.
//
// The tree itself is the functional (host-side) half of the two-plane
// simulation: nodes are host vectors plus a simulated base address per node.
// Kernels time the traversal by loading node addresses through their
// machine's memory model and mutate the host structure between suspension
// points — a mutation is instantaneous on the simulated clock, so concurrent
// request coroutines never observe a torn tree.  (A real implementation
// needs B-link chains for that; the leaf `next` chain models exactly that
// structure and carries the range scans.)
//
// Determinism: node ids and simulated addresses depend only on the order of
// structure changes within one family, every family is mutated only on its
// owning shard, and each shard's event order is deterministic — so the
// final forest is identical across --jobs settings.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace emusim::serve {

inline constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

struct BTreeNode {
  bool leaf = true;
  std::vector<std::uint64_t> keys;  ///< sorted
  std::vector<std::uint64_t> vals;  ///< leaf: parallel to keys
  std::vector<std::uint32_t> kids;  ///< inner: keys.size() + 1 children
  std::uint32_t next = kNoNode;     ///< leaf chain toward higher keys
  std::uint64_t addr = 0;           ///< simulated base address of this node
};

/// What an upsert did — the timed path issues one store per dirtied node.
struct UpsertOutcome {
  bool added = false;      ///< true: new key; false: value update
  std::uint32_t leaf = 0;  ///< leaf holding the key afterwards
  int new_nodes = 0;       ///< nodes created by splits (0 when none)
};

/// One element of a range-scan plan: a leaf and how many of its elements
/// the scan visits.
struct ScanStep {
  std::uint32_t leaf = 0;
  std::uint32_t elems = 0;
};

/// One subtree family: a single-rooted B+-tree over its key range.
class BTreeFamily {
 public:
  /// `alloc(bytes)` reserves simulated memory for one node on the owning
  /// device and returns its base address.  Called at construction (root),
  /// preload, and on every split — splits happen mid-run, so the callback
  /// must be safe to invoke from the owning shard's worker.
  using AllocFn = std::function<std::uint64_t(std::uint64_t bytes)>;

  BTreeFamily(int max_keys, AllocFn alloc);

  std::uint32_t root() const { return root_; }
  const BTreeNode& node(std::uint32_t id) const { return nodes_[id]; }
  std::size_t num_nodes() const { return nodes_.size(); }
  int height() const { return height_; }  ///< levels including the leaf
  int max_keys() const { return max_keys_; }
  /// Simulated footprint of one node (what alloc is asked for).
  std::uint64_t node_bytes() const { return node_bytes_; }

  /// Node ids visited root -> leaf for `key` (pure host-side descent).
  void path_to(std::uint64_t key, std::vector<std::uint32_t>* out) const;
  /// The leaf whose range covers `key`.
  std::uint32_t resolve_leaf(std::uint64_t key) const;

  /// Point lookup; returns true and fills `*val` when the key is present.
  bool lookup(std::uint64_t key, std::uint64_t* val) const;

  /// Insert-or-update (instantaneous host mutation; splits as needed).
  UpsertOutcome upsert(std::uint64_t key, std::uint64_t val);

  /// Plan a scan of up to `len` elements starting at the first key >=
  /// `start`, walking the leaf chain.  Truncates at the family's last leaf.
  std::vector<ScanStep> scan_plan(std::uint64_t start,
                                  std::uint32_t len) const;

  /// All (key, value) pairs in key order, via the leaf chain.
  void collect(std::vector<std::pair<std::uint64_t, std::uint64_t>>* out)
      const;

  /// Structural invariants: sorted keys, fanout bounds, routing-key
  /// consistency, uniform leaf depth, leaf chain ordering.  Returns false
  /// and fills `*err` on the first violation.
  bool check_invariants(std::string* err) const;

 private:
  std::uint32_t new_node(bool leaf);
  /// Split the over-full child `nodes_[id]`; returns the new right sibling
  /// and the separator key to insert into the parent.
  std::uint32_t split(std::uint32_t id, std::uint64_t* sep);

  int max_keys_;
  std::uint64_t node_bytes_;
  AllocFn alloc_;
  std::vector<BTreeNode> nodes_;
  std::uint32_t root_;
  int height_ = 1;
};

/// The forest: one family per contiguous key range.
class BTreeForest {
 public:
  /// `alloc(family, bytes)` places a node on the family's owning device
  /// (nodelet `family` on Emu; anywhere in the interleaved space on Xeon).
  using AllocFn = std::function<std::uint64_t(int family, std::uint64_t)>;

  BTreeForest(int num_families, std::uint64_t key_space, int max_keys,
              AllocFn alloc);

  int num_families() const { return static_cast<int>(families_.size()); }
  std::uint64_t key_space() const { return key_space_; }
  std::uint64_t range_size() const { return range_; }
  int family_of(std::uint64_t key) const {
    const auto f = key / range_;
    const auto last = static_cast<std::uint64_t>(num_families() - 1);
    return static_cast<int>(f < last ? f : last);
  }
  BTreeFamily& family(int f) { return families_[static_cast<std::size_t>(f)]; }
  const BTreeFamily& family(int f) const {
    return families_[static_cast<std::size_t>(f)];
  }

  /// Load every even key in [0, key_space) with value_of_key(key) — the
  /// deterministic warm state every serving run starts from.  Inserts from
  /// the request stream target the odd keys in between.
  void preload_even();

  std::size_t total_nodes() const;
  std::uint64_t total_keys() const;

  /// check_invariants over every family.
  bool check_all(std::string* err) const;

  /// The skew counter: per-key-range (== per-family) operation counts,
  /// reported in the result JSON.  Incremented by the serving drivers on
  /// the family's owning shard, so it needs no synchronization.
  std::vector<std::uint64_t> range_ops;

 private:
  std::uint64_t key_space_;
  std::uint64_t range_;
  std::vector<BTreeFamily> families_;
};

}  // namespace emusim::serve
