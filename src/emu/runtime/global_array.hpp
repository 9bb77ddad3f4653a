// GlobalArray<T>: the "higher-level memory allocation construct" the paper
// anticipates (§V-A) — a striped distributed array with whole-array
// operations built from the collectives, so application code rarely touches
// addresses or homes directly:
//
//   GlobalArray<std::int64_t> a(m, n);
//   co_await a.fill(ctx, 0);                       // parallel, all local
//   co_await a.transform(ctx, fn);                 // a[i] = fn(i, a[i])
//   auto s = co_await a.reduce_sum(ctx);           // reducer-based
//   auto h = co_await a.histogram(ctx, buckets);   // memory-side atomics
//
// Every operation is timed through the normal machine paths (local channel
// reads/writes, issue cycles, migrations only where the access pattern
// requires them) and functionally correct.
#pragma once

#include <cstdint>
#include <vector>

#include "emu/runtime/alloc.hpp"
#include "emu/runtime/parallel.hpp"

namespace emusim::emu {

template <class T>
class GlobalArray {
 public:
  GlobalArray(Machine& m, std::size_t n, std::size_t block = 1)
      : machine_(&m), view_(m, n, block) {}

  std::size_t size() const { return view_.size(); }
  Striped1D<T>& view() { return view_; }
  T& operator[](std::size_t i) { return view_[i]; }
  const T& operator[](std::size_t i) const { return view_[i]; }

  /// Parallel fill: every element written by a thread local to it.
  sim::Op<> fill(Context& ctx, T value, std::size_t grain = 64) {
    co_await for_each_home(
        ctx, &view_, grain,
        [this, value](Context& c, std::size_t i) -> sim::Op<> {
          view_[i] = value;
          c.write_local(view_.byte_addr(i), sizeof(T));
          co_await c.issue(2);
        });
  }

  /// Parallel transform: a[i] = fn(i, a[i]), all accesses local.
  template <class F>
  sim::Op<> transform(Context& ctx, F fn, std::size_t grain = 64) {
    co_await for_each_home(
        ctx, &view_, grain, [this, fn](Context& c, std::size_t i) -> sim::Op<> {
          co_await c.read_local(view_.byte_addr(i), sizeof(T));
          view_[i] = fn(i, view_[i]);
          c.write_local(view_.byte_addr(i), sizeof(T));
          co_await c.issue(4);
        });
  }

  /// Parallel sum via the reducer hyperobject.
  sim::Op<T> reduce_sum(Context& ctx, std::size_t grain = 64) {
    SumReducer<T> red(*machine_);
    co_await for_each_home(
        ctx, &view_, grain,
        [this, &red](Context& c, std::size_t i) -> sim::Op<> {
          co_await c.read_local(view_.byte_addr(i), sizeof(T));
          red.add(c, view_[i]);
          co_await c.issue(2);
        });
    co_return co_await red.reduce(ctx);
  }

  /// Parallel histogram into `buckets` bins of [lo, hi): bins live striped
  /// across nodelets and are updated with memory-side remote atomics, so
  /// counting threads never migrate (the GUPS pattern).
  sim::Op<std::vector<std::uint64_t>> histogram(Context& ctx, T lo, T hi,
                                                std::size_t buckets,
                                                std::size_t grain = 64) {
    Striped1D<std::uint64_t> bins(*machine_, buckets);
    for (std::size_t b = 0; b < buckets; ++b) bins[b] = 0;
    co_await for_each_home(
        ctx, &view_, grain,
        [this, &bins, lo, hi, buckets](Context& c,
                                       std::size_t i) -> sim::Op<> {
          co_await c.read_local(view_.byte_addr(i), sizeof(T));
          const T v = view_[i];
          if (v < lo || v >= hi) co_return;
          auto b = static_cast<std::size_t>(
              static_cast<double>(v - lo) / static_cast<double>(hi - lo) *
              static_cast<double>(buckets));
          if (b >= buckets) b = buckets - 1;
          // The increment executes on the bin's owning shard at delivery.
          std::uint64_t* slot = &bins[b];
          c.atomic_remote(bins.home(b), bins.byte_addr(b),
                          [slot] { ++*slot; });
          co_await c.issue(6);
        });
    if (machine_->num_shards() > 1) {
      // Remote-atomic deliveries posted by the last finishing counter can
      // still be in flight (they land one inter-node latency after the
      // post).  Two transits ahead of the join point is provably past the
      // last delivery's window, so reading and freeing `bins` is safe.
      co_await ctx.engine().sleep(2 * machine_->cfg().internode_latency);
    }
    std::vector<std::uint64_t> out(buckets);
    for (std::size_t b = 0; b < buckets; ++b) out[b] = bins[b];
    co_return out;
  }

  /// Parallel dot product with another array of identical layout.  Both
  /// sides of each term share a home, so the whole reduction is local.
  sim::Op<T> dot(Context& ctx, GlobalArray<T>& other,
                 std::size_t grain = 64) {
    EMUSIM_CHECK(other.size() == size());
    EMUSIM_CHECK(other.view_.block() == view_.block());
    SumReducer<T> red(*machine_);
    co_await for_each_home(
        ctx, &view_, grain,
        [this, &other, &red](Context& c, std::size_t i) -> sim::Op<> {
          co_await c.read_local(view_.byte_addr(i), sizeof(T));
          co_await c.read_local(other.view_.byte_addr(i), sizeof(T));
          red.add(c, view_[i] * other.view_[i]);
          co_await c.issue(3);
        });
    co_return co_await red.reduce(ctx);
  }

 private:
  Machine* machine_;
  Striped1D<T> view_;
};

}  // namespace emusim::emu
