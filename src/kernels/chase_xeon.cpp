#include "kernels/chase_xeon.hpp"

#include <vector>

#include "xeon/machine.hpp"

namespace emusim::kernels {

using sim::Op;
using xeon::CpuContext;

namespace {

struct XChase {
  std::uint64_t base = 0;  ///< simulated address of element 0 (16 B each)
  const ChaseList* list = nullptr;
  std::vector<std::int64_t> sums;
};

Op<> chase_worker(CpuContext& ctx, XChase* st, int t) {
  const std::uint32_t* next = st->list->next.data();
  const std::uint32_t* payload = st->list->payload.data();
  std::int64_t sum = 0;
  std::uint32_t idx = st->list->head[static_cast<std::size_t>(t)];
  while (idx != kChaseEnd) {
    // Read the successor one element ahead and start the host fetches it
    // will need; the other simulated threads' events run while they land.
    const std::uint32_t nxt = next[idx];
    if (nxt != kChaseEnd) {
      __builtin_prefetch(next + nxt);
      __builtin_prefetch(payload + nxt);
      ctx.host_prefetch(st->base + nxt * sizeof(ChaseElement));
    }
    co_await ctx.load(st->base + idx * sizeof(ChaseElement));
    co_await ctx.compute(kChaseXeonCyclesPerElement);
    sum += payload[idx];
    idx = nxt;
  }
  st->sums[static_cast<std::size_t>(t)] = sum;
}

}  // namespace

ChaseXeonResult run_chase_xeon(const xeon::SystemConfig& cfg,
                               const ChaseXeonParams& p) {
  const ChaseList list =
      build_chase_list(p.n, p.block, p.threads, p.mode, p.seed);

  xeon::Machine m(cfg);
  XChase st;
  st.base = m.allocate(p.n * sizeof(ChaseElement));
  st.list = &list;
  st.sums.assign(static_cast<std::size_t>(p.threads), 0);

  std::vector<xeon::TaskFn> tasks;
  for (int t = 0; t < p.threads; ++t) {
    tasks.push_back(
        [&st, t](CpuContext& ctx) { return chase_worker(ctx, &st, t); });
  }
  const Time elapsed = run_task_pool(m, p.threads, std::move(tasks), 0);

  ChaseXeonResult r;
  r.elapsed = elapsed;
  r.mb_per_sec = mb_per_sec(16.0 * static_cast<double>(p.n), elapsed);
  r.llc_hit_rate = m.llc().stats.hit_rate();
  for (int c = 0; c < cfg.channels; ++c) {
    r.row_hits += m.channel(c).stats().row_hits;
    r.row_misses += m.channel(c).stats().row_misses;
  }
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
