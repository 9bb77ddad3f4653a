// Higher-level parallel constructs over the threadlet runtime.
//
// The Chick's 17.11 toolchain lacked cilk_for and Cilk reducers (paper
// §III-A), and §V anticipates "higher-level memory allocation constructs"
// on top of the malloc family.  This header provides both as a library —
// the forms the paper's own benchmarks hand-rolled:
//
//   parallel_apply      — cilk_for over an index range: a local recursive
//                         spawn tree down to a grain, spawn-left/iterate-
//                         right so live internal frames stay bounded.
//   remote_spawn_tree   — the "smart spawn" of §IV-A: a recursive tree of
//                         remote spawns running one leaf per index, each
//                         born on that index's home nodelet.
//   on_each_nodelet     — remote_spawn_tree placing one leader per nodelet.
//   for_each_home       — distributed for-each over a striped view: leaders
//                         per nodelet, each applying a local spawn tree to
//                         the elements homed there; bodies never migrate.
//   SumReducer<T>       — a reducer hyperobject: per-nodelet partials
//                         updated locally, combined once at the end.
#pragma once

#include <cstdint>

#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"

namespace emusim::emu {

namespace detail {

template <class F>
sim::Op<> apply_leaf(Context& ctx, std::size_t lo, std::size_t hi, F body) {
  for (std::size_t i = lo; i < hi; ++i) {
    co_await body(ctx, i);
  }
}

template <class H, class L>
sim::Op<> remote_subtree(Context& ctx, int lo, int hi, H home_of, L leaf) {
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    co_await ctx.spawn_at(home_of(mid), [mid, hi, home_of, leaf](Context& c) {
      return remote_subtree(c, mid, hi, home_of, leaf);
    });
    hi = mid;
  }
  co_await leaf(ctx, lo);
  co_await ctx.sync();
}

}  // namespace detail

/// cilk_for equivalent: apply `body(ctx, i)` for every i in [lo, hi),
/// spawning subtrees until ranges shrink to `grain`.  The caller's context
/// runs part of the work itself (and syncs before returning).
template <class F>
sim::Op<> parallel_apply(Context& ctx, std::size_t lo, std::size_t hi,
                         std::size_t grain, F body) {
  if (grain < 1) grain = 1;
  while (hi - lo > grain) {
    const std::size_t mid = lo + (hi - lo) / 2;
    co_await ctx.spawn([mid, hi, grain, body](Context& c) {
      return parallel_apply(c, mid, hi, grain, body);
    });
    hi = mid;
  }
  co_await detail::apply_leaf(ctx, lo, hi, body);
  co_await ctx.sync();
}

/// Remote-spawn tree: run `leaf(ctx, i)` once for every i in [lo, hi)
/// (lo < hi), born on nodelet `home_of(i)`.  The root spawns the whole range
/// at `home_of(lo)`; each tree node spawns its upper half at `home_of(mid)`
/// and keeps the lower, so the spawn packets fan out through the fabric
/// instead of serializing at the caller (one remote spawn per index).
/// Completes when every leaf (and its children) finish.
template <class H, class L>
sim::Op<> remote_spawn_tree(Context& ctx, int lo, int hi, H home_of, L leaf) {
  co_await ctx.spawn_at(home_of(lo), [lo, hi, home_of, leaf](Context& c) {
    return detail::remote_subtree(c, lo, hi, home_of, leaf);
  });
  co_await ctx.sync();
}

/// Run `body(ctx)` once on every nodelet through a remote-spawn tree.
template <class F>
sim::Op<> on_each_nodelet(Context& ctx, F body) {
  return remote_spawn_tree(
      ctx, 0, ctx.machine().num_nodelets(), [](int d) { return d; },
      [body](Context& c, int) { return body(c); });
}

/// Distributed for-each over a striped view: one leader per nodelet applies
/// `body(ctx, global_index)` to every element homed there via a local spawn
/// tree of `grain`-sized leaves.  With per-element work that touches only
/// view[global_index], bodies never migrate.
template <class T, class F>
sim::Op<> for_each_home(Context& ctx, Striped1D<T>* view, std::size_t grain,
                        F body) {
  co_await on_each_nodelet(ctx, [view, grain, body](Context& c) -> sim::Op<> {
    const int d = c.nodelet();
    const std::size_t local = view->elems_on(d);
    co_await parallel_apply(
        c, 0, local, grain,
        [view, d, body](Context& t, std::size_t k) -> sim::Op<> {
          co_await body(t, view->global_index(d, k));
        });
  });
}

/// Reducer hyperobject for commutative sums (the Cilk reducer the 17.11
/// toolchain lacked).  Each add() updates the partial on the calling
/// thread's current nodelet — a local memory operation, no contention, no
/// migration.  reduce() visits the partials once.
template <class T>
class SumReducer {
 public:
  explicit SumReducer(Machine& m)
      : partials_(m, 1), values_(static_cast<std::size_t>(m.num_nodelets()),
                                 T{}) {}

  /// Add `v` into the local partial (posted local read-modify-write).
  void add(Context& ctx, T v) {
    values_[static_cast<std::size_t>(ctx.nodelet())] += v;
    ctx.write_local(partials_.byte_addr_on(ctx.nodelet(), 0), sizeof(T));
  }

  /// Combine all partials: the calling thread reads each nodelet's partial
  /// through the normal migratory path, then migrates home so follow-on
  /// local operations are charged to the caller's original nodelet (the
  /// combine loop would otherwise strand the context on nodelet n-1).
  sim::Op<T> reduce(Context& ctx) {
    T total{};
    const int home = ctx.nodelet();
    const int n = ctx.machine().num_nodelets();
    for (int d = 0; d < n; ++d) {
      if (d != ctx.nodelet()) co_await ctx.migrate_to(d);
      co_await ctx.read_local(partials_.byte_addr_on(d, 0), sizeof(T));
      total += values_[static_cast<std::size_t>(d)];
    }
    if (ctx.nodelet() != home) co_await ctx.migrate_to(home);
    co_return total;
  }

  /// Host-side total (no timing); valid once the machine is idle.
  T value_unsynchronized() const {
    T total{};
    for (const auto& v : values_) total += v;
    return total;
  }

 private:
  Replicated<T> partials_;  ///< one timed slot per nodelet
  std::vector<T> values_;   ///< functional partial per nodelet
};

}  // namespace emusim::emu
