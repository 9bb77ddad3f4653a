#include "kernels/chase_emu.hpp"

#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"

namespace emusim::kernels {

using emu::Context;
using emu::Striped1D;
using sim::Op;

namespace {

struct ChaseState {
  Striped1D<ChaseElement> elems;  ///< address math only; never materialized
  const ChaseList* list;
  std::vector<std::int64_t> sums;
  ChaseState(emu::Machine& m, const ChaseList& l)
      : elems(m, l.n, l.block), list(&l),
        sums(static_cast<std::size_t>(l.threads), 0) {}
};

Op<> chase_worker(Context& ctx, ChaseState* st, int t) {
  const std::uint32_t* next = st->list->next.data();
  const std::uint32_t* payload = st->list->payload.data();
  std::int64_t sum = 0;
  std::uint32_t idx = st->list->head[static_cast<std::size_t>(t)];
  while (idx != kChaseEnd) {
    // Start the host fetches of this element's fields; the migration, issue
    // and read events below let other threads run while they land.
    __builtin_prefetch(next + idx);
    __builtin_prefetch(payload + idx);
    const int home = st->elems.home(idx);
    if (home != ctx.nodelet()) co_await ctx.migrate_to(home);
    co_await ctx.issue(kChaseCyclesPerElement);
    // One 16 B element: payload + next pointer from the local channel.
    co_await ctx.read_local(st->elems.byte_addr(idx), 16);
    sum += payload[idx];
    idx = next[idx];
  }
  st->sums[static_cast<std::size_t>(t)] = sum;
}

int head_home(const ChaseState* st, int t) {
  return st->elems.home(st->list->head[static_cast<std::size_t>(t)]);
}

/// Recursive remote-spawn tree over the chain index range: each tree node
/// is born on the home nodelet of its first chain's head block and becomes
/// that chain's worker.  Serially spawning thousands of chains from one
/// thread would make the measurement ramp-bound — the paper's own Fig 5
/// lesson, applied to the harness.
Op<> chase_spawn_tree(Context& ctx, ChaseState* st, int tlo, int thi) {
  while (thi - tlo > 1) {
    const int mid = tlo + (thi - tlo) / 2;
    co_await ctx.spawn_at(head_home(st, mid), [st, mid, thi](Context& c) {
      return chase_spawn_tree(c, st, mid, thi);
    });
    thi = mid;
  }
  co_await chase_worker(ctx, st, tlo);
  co_await ctx.sync();
}

Op<> chase_root(Context& ctx, ChaseState* st) {
  co_await ctx.spawn_at(head_home(st, 0), [st](Context& c) {
    return chase_spawn_tree(c, st, 0, st->list->threads);
  });
  co_await ctx.sync();
}

}  // namespace

ChaseEmuResult run_chase_emu(const emu::SystemConfig& cfg,
                             const ChaseEmuParams& p) {
  const ChaseList list =
      build_chase_list(p.n, p.block, p.threads, p.mode, p.seed);

  emu::Machine m(cfg);
  ChaseState st(m, list);

  const Time elapsed =
      m.run_root([&](Context& ctx) { return chase_root(ctx, &st); });

  ChaseEmuResult r;
  r.elapsed = elapsed;
  r.mb_per_sec = mb_per_sec(16.0 * static_cast<double>(p.n), elapsed);
  r.migrations = m.stats.migrations;
  r.migrations_per_element =
      static_cast<double>(m.stats.migrations) / static_cast<double>(p.n);
  r.verified = true;
  for (int t = 0; t < p.threads; ++t) {
    if (st.sums[static_cast<std::size_t>(t)] !=
        list.expected_sum[static_cast<std::size_t>(t)]) {
      r.verified = false;
      break;
    }
  }
  return r;
}

}  // namespace emusim::kernels
