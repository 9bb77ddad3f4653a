#include <cmath>

#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"
#include "emu/runtime/parallel.hpp"
#include "kernels/mttkrp.hpp"

namespace emusim::kernels {

using emu::Chunked;
using emu::Context;
using emu::Replicated;
using emu::Striped1D;
using sim::Op;

const char* to_string(MttkrpLayout l) {
  switch (l) {
    case MttkrpLayout::one_d: return "1d";
    case MttkrpLayout::two_d: return "2d";
  }
  return "?";
}

namespace {

/// Nonzero range boundaries per nodelet, splitting only between different
/// mode-0 indices so each M row has a single owner.
std::vector<std::size_t> partition_by_slice(const tensor::CooTensor& x,
                                            int parts) {
  std::vector<std::size_t> bounds(1, 0);
  for (int p = 1; p < parts; ++p) {
    std::size_t target = x.nnz() * static_cast<std::size_t>(p) /
                         static_cast<std::size_t>(parts);
    // advance to the next slice boundary
    while (target > 0 && target < x.nnz() &&
           x.i[target] == x.i[target - 1]) {
      ++target;
    }
    bounds.push_back(target);
  }
  bounds.push_back(x.nnz());
  return bounds;
}

// --- 2D layout --------------------------------------------------------------

struct TwoDState {
  const tensor::CooTensor* x;
  const tensor::Factor *b, *c;
  std::size_t rank;
  std::vector<std::size_t> bounds;
  Chunked<std::uint64_t> coords;  ///< 4 words per nonzero (i, j, k, val)
  Replicated<double> bmat, cmat;
  /// First mode-0 index per nodelet.  Declared before `m`: m_counts fills
  /// it while computing m's chunk sizes during member initialization.
  std::vector<std::uint64_t> m_row_base;
  Chunked<double> m;  ///< per-nodelet output rows
  std::vector<double> m_host;

  static std::vector<std::size_t> coord_counts(
      const std::vector<std::size_t>& bounds) {
    std::vector<std::size_t> c;
    for (std::size_t d = 0; d + 1 < bounds.size(); ++d) {
      c.push_back(4 * (bounds[d + 1] - bounds[d]));
    }
    return c;
  }
  std::vector<std::size_t> m_counts(const tensor::CooTensor& t,
                                    const std::vector<std::size_t>& bnds) {
    std::vector<std::size_t> counts;
    m_row_base.clear();
    for (std::size_t d = 0; d + 1 < bnds.size(); ++d) {
      const std::size_t lo = bnds[d], hi = bnds[d + 1];
      const std::uint64_t first = lo < hi ? t.i[lo] : 0;
      const std::uint64_t last = lo < hi ? t.i[hi - 1] + 1 : 0;
      m_row_base.push_back(first);
      counts.push_back(static_cast<std::size_t>(last - first) * rank);
    }
    return counts;
  }

  TwoDState(emu::Machine& mach, const tensor::CooTensor& t,
            const tensor::Factor& bf, const tensor::Factor& cf)
      : x(&t), b(&bf), c(&cf), rank(static_cast<std::size_t>(bf.rank)),
        bounds(partition_by_slice(t, mach.num_nodelets())),
        coords(mach, coord_counts(bounds)),
        bmat(mach, bf.data.size()),
        cmat(mach, cf.data.size()),
        m(mach, m_counts(t, bounds)),
        m_host(t.dim0 * rank, 0.0) {}
};

Op<> two_d_range(Context& ctx, TwoDState* st, int d, std::size_t lo,
                 std::size_t hi) {
  const std::size_t base = st->bounds[static_cast<std::size_t>(d)];
  const auto rank32 = static_cast<std::uint32_t>(st->rank * 8);
  for (std::size_t e = lo; e < hi; ++e) {
    co_await ctx.issue(kMttkrpEmuCyclesPerNnz +
                       kMttkrpEmuCyclesPerRankCol * st->rank);
    // coordinates + value: 32 B local
    co_await ctx.read_local(st->coords.byte_addr(d, 4 * (e - base)), 32);
    // factor rows: local replicas
    co_await ctx.read_local(
        st->bmat.byte_addr_on(d, static_cast<std::size_t>(st->x->j[e]) *
                                     st->rank),
        rank32);
    co_await ctx.read_local(
        st->cmat.byte_addr_on(d, static_cast<std::size_t>(st->x->k[e]) *
                                     st->rank),
        rank32);
    // output row: local read-modify-write
    const std::uint64_t m_off =
        (static_cast<std::uint64_t>(st->x->i[e]) -
         st->m_row_base[static_cast<std::size_t>(d)]) *
        st->rank;
    co_await ctx.read_local(st->m.byte_addr(d, m_off), rank32);
    ctx.write_local(st->m.byte_addr(d, m_off), rank32);

    const double v = st->x->val[e];
    const double* br = st->b->row(st->x->j[e]);
    const double* cr = st->c->row(st->x->k[e]);
    double* mr = st->m_host.data() +
                 static_cast<std::size_t>(st->x->i[e]) * st->rank;
    for (std::size_t r = 0; r < st->rank; ++r) mr[r] += v * br[r] * cr[r];
  }
}

// --- 1D layout --------------------------------------------------------------

struct OneDState {
  const tensor::CooTensor* x;
  const tensor::Factor *b, *c;
  std::size_t rank;
  Striped1D<std::uint64_t> vals;  ///< one word per nonzero value
  Striped1D<std::uint64_t> coords;  ///< 3 words per nnz striped wordwise
  Replicated<double> bmat, cmat;
  emu::LocalArray<double> m;  ///< all of M on nodelet 0
  std::vector<double> m_host;

  OneDState(emu::Machine& mach, const tensor::CooTensor& t,
            const tensor::Factor& bf, const tensor::Factor& cf)
      : x(&t), b(&bf), c(&cf), rank(static_cast<std::size_t>(bf.rank)),
        vals(mach, t.nnz()),
        coords(mach, 3 * t.nnz()),
        bmat(mach, bf.data.size()),
        cmat(mach, cf.data.size()),
        m(mach, t.dim0 * rank, 0),
        m_host(t.dim0 * rank, 0.0) {}
};

Op<> one_d_range(Context& ctx, OneDState* st, std::size_t lo, std::size_t hi) {
  const auto rank32 = static_cast<std::uint32_t>(st->rank * 8);
  for (std::size_t e = lo; e < hi; ++e) {
    // value home leads the walk; coordinates stripe separately, so the
    // thread hops for nearly every word it touches.
    const int hv = st->vals.home(e);
    if (ctx.nodelet() != hv) co_await ctx.migrate_to(hv);
    co_await ctx.issue(kMttkrpEmuCyclesPerNnz +
                       kMttkrpEmuCyclesPerRankCol * st->rank);
    co_await ctx.read_local(st->vals.byte_addr(e), 8);
    for (std::size_t w = 0; w < 3; ++w) {
      const std::size_t idx = 3 * e + w;
      const int hc = st->coords.home(idx);
      if (ctx.nodelet() != hc) co_await ctx.migrate_to(hc);
      co_await ctx.read_local(st->coords.byte_addr(idx), 8);
    }
    const int here = ctx.nodelet();
    co_await ctx.read_local(
        st->bmat.byte_addr_on(here, static_cast<std::size_t>(st->x->j[e]) *
                                        st->rank),
        rank32);
    co_await ctx.read_local(
        st->cmat.byte_addr_on(here, static_cast<std::size_t>(st->x->k[e]) *
                                        st->rank),
        rank32);
    // M lives on nodelet 0: accumulate with memory-side remote atomics,
    // one per rank column.  Each host add rides its atomic and executes on
    // M's owning shard at delivery, so the accumulation order (and the
    // floating-point result) is fixed by the event schedule.
    const double v = st->x->val[e];
    const double* br = st->b->row(st->x->j[e]);
    const double* cr = st->c->row(st->x->k[e]);
    const std::size_t row0 = static_cast<std::size_t>(st->x->i[e]) * st->rank;
    for (std::size_t r = 0; r < st->rank; ++r) {
      double* mr = st->m_host.data() + row0 + r;
      const double add = v * br[r] * cr[r];
      ctx.atomic_remote(st->m.home(), st->m.byte_addr(row0 + r),
                        [mr, add] { *mr += add; });
    }
  }
}

bool verify(const std::vector<double>& got, const tensor::CooTensor& x,
            const tensor::Factor& b, const tensor::Factor& c) {
  const auto want = tensor::mttkrp_reference(x, b, c);
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::abs(want[i] - got[i]) > 1e-9) return false;
  }
  return true;
}

}  // namespace

MttkrpResult run_mttkrp_emu(const emu::SystemConfig& cfg,
                            const MttkrpEmuParams& p) {
  EMUSIM_CHECK(p.x != nullptr);
  const tensor::CooTensor& x = *p.x;
  const auto b = tensor::make_factor(x.dim1, p.rank, 21);
  const auto c = tensor::make_factor(x.dim2, p.rank, 22);

  emu::Machine m(cfg);
  MttkrpResult r;

  if (p.layout == MttkrpLayout::two_d) {
    TwoDState st(m, x, b, c);
    r.elapsed = m.run_root([&](Context& ctx) -> Op<> {
      co_await emu::on_each_nodelet(ctx, [&](Context& lead) -> Op<> {
        const int d = lead.nodelet();
        const std::size_t lo = st.bounds[static_cast<std::size_t>(d)];
        const std::size_t hi = st.bounds[static_cast<std::size_t>(d) + 1];
        co_await emu::parallel_apply(
            lead, lo, hi, p.grain,
            [&st, d](Context& t, std::size_t e) {
              return two_d_range(t, &st, d, e, e + 1);
            });
      });
    });
    r.verified = verify(st.m_host, x, b, c);
  } else {
    OneDState st(m, x, b, c);
    r.elapsed = m.run_root([&](Context& ctx) -> Op<> {
      co_await emu::on_each_nodelet(ctx, [&](Context& lead) -> Op<> {
        const int d = lead.nodelet();
        const int nlets = lead.machine().num_nodelets();
        const std::size_t lo = x.nnz() * static_cast<std::size_t>(d) /
                               static_cast<std::size_t>(nlets);
        const std::size_t hi = x.nnz() * static_cast<std::size_t>(d + 1) /
                               static_cast<std::size_t>(nlets);
        co_await emu::parallel_apply(
            lead, lo, hi, p.grain,
            [&st](Context& t, std::size_t e) {
              return one_d_range(t, &st, e, e + 1);
            });
      });
    });
    r.verified = verify(st.m_host, x, b, c);
  }

  r.migrations = m.stats.migrations;
  r.mflops = tensor::mttkrp_flops(x, p.rank) / to_seconds(r.elapsed) / 1e6;
  r.mb_per_sec = mb_per_sec(32.0 * static_cast<double>(x.nnz()), r.elapsed);
  return r;
}

}  // namespace emusim::kernels
