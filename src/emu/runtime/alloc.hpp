// Distributed allocation views over the Emu global address space.
//
// The Emu toolchain exposes placement through its malloc family; each view
// here models one of those allocators, owns host backing storage for the
// functional values, and reserves local address ranges on the owning
// nodelets so channel-level row/bank locality is realistic:
//
//   Striped1D<T>  — mw_malloc1dlong: element- (block=1) or block-granular
//                   round-robin striping across all nodelets.
//   LocalArray<T> — mw_localmalloc: contiguous on a single nodelet.
//   Replicated<T> — mw_replicated: one copy per nodelet; reads are always
//                   local and never migrate (used for SpMV's x vector).
//   Chunked<T>    — the paper's custom two-stage "2D" allocation: explicit
//                   per-nodelet chunks (e.g. the rows assigned to a nodelet).
//
// Host storage is chunked per participating nodelet and materialized
// lazily, mirroring the emu_2d_array layout the paper's microbenchmarks
// use: each chunk holds exactly the elements homed on its nodelet, appears
// the first time an element of that nodelet is touched, and is registered
// against the machine's HostFootprint (emu/runtime/footprint.hpp).  A view
// used only for address/home math — the at-scale benches sweep 2^30-element
// regions this way — costs O(participating nodelets) bookkeeping and zero
// element storage, which is what makes billion-element regions on 256-1024
// nodelet configs feasible.  Kernels capture `&view[i]` host pointers from
// non-owner shards, so chunks never move once installed.
//
// Views provide address/home mapping for the timed path and plain element
// access for the functional path.  Hot kernels use the mapping directly:
//
//   const int h = view.home(i);
//   if (h != ctx.nodelet()) co_await ctx.migrate_to(h);
//   co_await ctx.read_local(view.byte_addr(i), sizeof(T));
//   use(view[i]);
//
// The `load` convenience coroutine bundles those steps for cold paths.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "emu/machine.hpp"
#include "emu/runtime/footprint.hpp"
#include "sim/op.hpp"

namespace emusim::emu {

namespace detail {

/// Lazily materialized per-nodelet host chunks with footprint accounting.
/// Chunk sizes are fixed at construction; storage appears on first touch
/// (zero-initialized, matching the old dense mirror's semantics) and is
/// charged to the machine's HostFootprint.  An installed chunk's address
/// never changes: kernels keep `&view[i]` host pointers across suspensions.
template <class T>
class LazyChunks {
 public:
  LazyChunks(std::shared_ptr<HostFootprint> fp, std::vector<std::size_t> sizes)
      : fp_(std::move(fp)), sizes_(std::move(sizes)), slots_(sizes_.size()) {}

  ~LazyChunks() { release(); }

  LazyChunks(LazyChunks&& o) noexcept
      : fp_(std::move(o.fp_)),
        sizes_(std::move(o.sizes_)),
        slots_(std::move(o.slots_)) {
    o.sizes_.clear();
    o.slots_.clear();
  }
  LazyChunks& operator=(LazyChunks&& o) noexcept {
    if (this != &o) {
      release();
      fp_ = std::move(o.fp_);
      sizes_ = std::move(o.sizes_);
      slots_ = std::move(o.slots_);
      o.sizes_.clear();
      o.slots_.clear();
    }
    return *this;
  }
  LazyChunks(const LazyChunks&) = delete;
  LazyChunks& operator=(const LazyChunks&) = delete;

  std::size_t num_chunks() const { return sizes_.size(); }
  std::size_t chunk_elems(std::size_t d) const { return sizes_[d]; }

  /// The chunk for nodelet-slot `d`, materializing it on first touch.
  T* chunk(std::size_t d) const {
    T* p = slots_[d].get();
    return p != nullptr ? p : materialize(d);
  }

  bool materialized(std::size_t d) const { return slots_[d] != nullptr; }

  /// Host bytes of element storage currently materialized.
  std::uint64_t materialized_bytes() const {
    std::uint64_t b = 0;
    for (std::size_t d = 0; d < sizes_.size(); ++d) {
      if (materialized(d)) b += sizes_[d] * sizeof(T);
    }
    return b;
  }

 private:
  T* materialize(std::size_t d) const {
    EMUSIM_CHECK(sizes_[d] > 0);
    slots_[d] = std::make_unique<T[]>(sizes_[d]);
    if (fp_) fp_->add(sizes_[d] * sizeof(T));
    return slots_[d].get();
  }

  void release() {
    if (fp_) {
      for (std::size_t d = 0; d < sizes_.size(); ++d) {
        if (materialized(d)) fp_->sub(sizes_[d] * sizeof(T));
      }
    }
    sizes_.clear();
    slots_.clear();
  }

  std::shared_ptr<HostFootprint> fp_;
  std::vector<std::size_t> sizes_;
  mutable std::vector<std::unique_ptr<T[]>> slots_;
};

}  // namespace detail

template <class T>
class Striped1D {
 public:
  /// Stripe `n` elements across the first `across` nodelets of `m` (0 =
  /// all), `block` elements at a time.  block=1 reproduces mw_malloc1dlong's
  /// word-granular striping; across=1 degenerates to a local allocation on
  /// nodelet 0 (used for single-nodelet experiments).
  Striped1D(Machine& m, std::size_t n, std::size_t block = 1, int across = 0)
      : n_(n), block_(block),
        nlets_(static_cast<std::size_t>(across > 0 ? across
                                                   : m.num_nodelets())),
        chunks_(m.host_footprint_ptr(), [&] {
          EMUSIM_CHECK(block >= 1);
          std::vector<std::size_t> sizes(nlets_);
          for (std::size_t d = 0; d < nlets_; ++d) {
            sizes[d] = elems_on(static_cast<int>(d));
          }
          return sizes;
        }()) {
    EMUSIM_CHECK(nlets_ <= static_cast<std::size_t>(m.num_nodelets()));
    base_.reserve(nlets_);
    for (std::size_t d = 0; d < nlets_; ++d) {
      const std::uint64_t bytes = elems_on(static_cast<int>(d)) * sizeof(T);
      base_.push_back(m.nodelet(static_cast<int>(d))
                          .allocate(bytes ? bytes : sizeof(T), alignof(T)));
    }
  }

  std::size_t size() const { return n_; }
  std::size_t block() const { return block_; }
  std::uint64_t bytes() const { return n_ * sizeof(T); }
  /// Host bytes currently materialized for this view (chunk storage only;
  /// an untouched view reports 0 no matter how large the region is).
  std::uint64_t host_bytes() const { return chunks_.materialized_bytes(); }
  /// Whether nodelet `nlet`'s chunk has been materialized.
  bool chunk_materialized(int nlet) const {
    return chunks_.materialized(static_cast<std::size_t>(nlet));
  }

  int home(std::size_t i) const {
    return static_cast<int>((i / block_) % nlets_);
  }

  std::uint64_t byte_addr(std::size_t i) const {
    const std::size_t blk = i / block_;
    const std::size_t local_elem = (blk / nlets_) * block_ + i % block_;
    return base_[(i / block_) % nlets_] + local_elem * sizeof(T);
  }

  T& operator[](std::size_t i) { return element(i); }
  const T& operator[](std::size_t i) const { return element(i); }

  /// Number of elements homed on nodelet `nlet`.
  std::size_t elems_on(int nlet) const {
    const auto d = static_cast<std::size_t>(nlet);
    const std::size_t full_blocks = n_ / block_;
    const std::size_t tail = n_ % block_;
    std::size_t elems = (full_blocks / nlets_) * block_;
    const std::size_t rem = full_blocks % nlets_;
    if (d < rem) elems += block_;
    if (tail && full_blocks % nlets_ == d) elems += tail;
    return elems;
  }

  /// Global index of the k-th element homed on nodelet `nlet`.
  std::size_t global_index(int nlet, std::size_t k) const {
    const std::size_t lb = k / block_;
    const std::size_t blk = lb * nlets_ + static_cast<std::size_t>(nlet);
    return blk * block_ + k % block_;
  }

  /// Convenience timed load: migrate to the element's home if needed, then
  /// read it.  Allocates a coroutine frame — use the manual pattern in hot
  /// kernels.
  sim::Op<T> load(Context& ctx, std::size_t i) {
    const int h = home(i);
    if (h != ctx.nodelet()) co_await ctx.migrate_to(h);
    co_await ctx.read_local(byte_addr(i), sizeof(T));
    co_return element(i);
  }

 private:
  T& element(std::size_t i) const {
    const std::size_t blk = i / block_;
    const std::size_t local = (blk / nlets_) * block_ + i % block_;
    return chunks_.chunk(blk % nlets_)[local];
  }

  std::size_t n_;
  std::size_t block_;
  std::size_t nlets_;
  detail::LazyChunks<T> chunks_;
  std::vector<std::uint64_t> base_;
};

template <class T>
class LocalArray {
 public:
  LocalArray(Machine& m, std::size_t n, int nodelet)
      : nodelet_(nodelet), n_(n),
        chunks_(m.host_footprint_ptr(), std::vector<std::size_t>{n}),
        base_(m.nodelet(nodelet).allocate(n ? n * sizeof(T) : sizeof(T),
                                          alignof(T))) {}

  std::size_t size() const { return n_; }
  std::uint64_t bytes() const { return n_ * sizeof(T); }
  std::uint64_t host_bytes() const { return chunks_.materialized_bytes(); }
  int home(std::size_t) const { return nodelet_; }
  int home() const { return nodelet_; }
  std::uint64_t byte_addr(std::size_t i) const { return base_ + i * sizeof(T); }
  T& operator[](std::size_t i) { return chunks_.chunk(0)[i]; }
  const T& operator[](std::size_t i) const { return chunks_.chunk(0)[i]; }

  sim::Op<T> load(Context& ctx, std::size_t i) {
    if (nodelet_ != ctx.nodelet()) co_await ctx.migrate_to(nodelet_);
    co_await ctx.read_local(byte_addr(i), sizeof(T));
    co_return chunks_.chunk(0)[i];
  }

 private:
  int nodelet_;
  std::size_t n_;
  detail::LazyChunks<T> chunks_;
  std::uint64_t base_;
};

template <class T>
class Replicated {
 public:
  Replicated(Machine& m, std::size_t n)
      : n_(n), chunks_(m.host_footprint_ptr(), std::vector<std::size_t>{n}) {
    const int nlets = m.num_nodelets();
    base_.reserve(static_cast<std::size_t>(nlets));
    for (int d = 0; d < nlets; ++d) {
      base_.push_back(
          m.nodelet(d).allocate(n ? n * sizeof(T) : sizeof(T), alignof(T)));
    }
  }

  std::size_t size() const { return n_; }
  /// Host bytes of the single functional copy (the per-nodelet replicas
  /// share one host image; simulated storage is per nodelet).
  std::uint64_t host_bytes() const { return chunks_.materialized_bytes(); }
  /// Address of element i in the copy local to `nlet`.
  std::uint64_t byte_addr_on(int nlet, std::size_t i) const {
    return base_[static_cast<std::size_t>(nlet)] + i * sizeof(T);
  }
  T& operator[](std::size_t i) { return chunks_.chunk(0)[i]; }
  const T& operator[](std::size_t i) const { return chunks_.chunk(0)[i]; }

  /// Timed read of the local replica: never migrates.
  auto read(Context& ctx, std::size_t i) {
    return ctx.read_local(byte_addr_on(ctx.nodelet(), i), sizeof(T));
  }

 private:
  std::size_t n_;
  detail::LazyChunks<T> chunks_;
  std::vector<std::uint64_t> base_;
};

/// Explicit per-nodelet chunks (the paper's custom two-stage 2D layout for
/// SpMV: each nodelet holds the values/indices of the rows assigned to it).
template <class T>
class Chunked {
 public:
  Chunked(Machine& m, const std::vector<std::size_t>& counts)
      : chunks_(m.host_footprint_ptr(), counts) {
    EMUSIM_CHECK(counts.size() ==
                 static_cast<std::size_t>(m.num_nodelets()));
    base_.reserve(counts.size());
    for (std::size_t d = 0; d < counts.size(); ++d) {
      base_.push_back(m.nodelet(static_cast<int>(d))
                          .allocate(counts[d] ? counts[d] * sizeof(T)
                                              : sizeof(T),
                                    alignof(T)));
    }
  }

  std::size_t chunk_size(int nlet) const {
    return chunks_.chunk_elems(static_cast<std::size_t>(nlet));
  }
  std::uint64_t host_bytes() const { return chunks_.materialized_bytes(); }
  int home(int nlet) const { return nlet; }
  std::uint64_t byte_addr(int nlet, std::size_t i) const {
    return base_[static_cast<std::size_t>(nlet)] + i * sizeof(T);
  }
  T& at(int nlet, std::size_t i) {
    return chunks_.chunk(static_cast<std::size_t>(nlet))[i];
  }
  const T& at(int nlet, std::size_t i) const {
    return chunks_.chunk(static_cast<std::size_t>(nlet))[i];
  }

 private:
  detail::LazyChunks<T> chunks_;
  std::vector<std::uint64_t> base_;
};

}  // namespace emusim::emu
