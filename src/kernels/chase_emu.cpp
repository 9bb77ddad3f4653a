#include "kernels/chase_emu.hpp"

#include "common/check.hpp"
#include "emu/machine.hpp"
#include "emu/runtime/alloc.hpp"
#include "emu/runtime/parallel.hpp"
#include "kernels/chase_scale.hpp"

namespace emusim::kernels {

using emu::Context;
using emu::Striped1D;
using sim::Op;

namespace {

/// Chains read in place from a built ChaseList (Figs 6, 8, 10, 11).
struct ListChains {
  struct Cursor {
    std::uint32_t idx;  ///< current element
  };

  Striped1D<ChaseElement> elems;  ///< address math only; never materialized
  const ChaseList* list;
  std::vector<std::int64_t> sums;
  ListChains(emu::Machine& m, const ChaseList& l)
      : elems(m, l.n, l.block), list(&l),
        sums(static_cast<std::size_t>(l.threads), 0) {}

  Cursor start(int t) const {
    return {list->head[static_cast<std::size_t>(t)]};
  }
  static bool done(Cursor c) { return c.idx == kChaseEnd; }
  // Start the host fetches of this element's fields; the migration, issue
  // and read events of the step let other threads run while they land.
  void prefetch(Cursor c) const {
    __builtin_prefetch(list->next.data() + c.idx);
    __builtin_prefetch(list->payload.data() + c.idx);
  }
  std::uint64_t payload(Cursor c) const { return list->payload[c.idx]; }
  Cursor advance(Cursor c) const { return {list->next[c.idx]}; }

  void finish(Context&, int t, std::uint64_t sum) {
    sums[static_cast<std::size_t>(t)] = static_cast<std::int64_t>(sum);
  }
  bool verified(int t) const {
    const auto k = static_cast<std::size_t>(t);
    return sums[k] == list->expected_sum[k];
  }
};

// Full-period LCG over a power-of-two block-index space (Hull–Dobell:
// multiplier ≡ 1 mod 4, increment odd), so a chain visits nblocks distinct
// blocks before repeating — a procedural stand-in for the Fig 11 list's
// block shuffle that needs no O(nblocks) permutation table.
constexpr std::uint64_t kLcgMul = 0xd1342543de82ef95ULL;
constexpr std::uint64_t kLcgAdd = 0x9e3779b97f4a7c15ULL;

std::uint64_t hash_index(std::uint64_t idx, std::uint64_t seed) {
  std::uint64_t s = idx ^ (seed * 0x9e3779b97f4a7c15ULL);
  return sim::splitmix64(s);
}

/// Procedural chains for the scaling sweep: each walks `elems_per_thread`
/// elements, a whole block at a time, in LCG (or sequential) block order,
/// with hash_index payloads.  Host state is O(threads).
struct LcgChains {
  struct Cursor {
    std::uint64_t idx;   ///< current element
    std::uint64_t left;  ///< elements still to visit, this one included
  };

  ChaseScaleParams p;
  std::uint64_t mask;             ///< block count - 1
  Striped1D<ChaseElement> elems;  ///< address math only; never materialized
  // Allocated after `elems`: allocation order sets simulated addresses.
  Striped1D<std::int64_t> sums;   ///< one checksum slot per chain

  LcgChains(emu::Machine& m, const ChaseScaleParams& params)
      : p(params),
        mask(params.n / params.block - 1),
        elems(m, params.n, params.block),
        sums(m, static_cast<std::size_t>(params.threads)) {}

  std::uint64_t next_block(std::uint64_t b) const {
    return p.shuffled ? (b * kLcgMul + kLcgAdd) & mask : (b + 1) & mask;
  }

  Cursor start(int t) const {
    std::uint64_t s = p.seed ^ (static_cast<std::uint64_t>(t) + 1);
    return {(sim::splitmix64(s) & mask) * p.block, p.elems_per_thread};
  }
  static bool done(const Cursor& c) { return c.left == 0; }
  static void prefetch(const Cursor&) {}
  std::uint64_t payload(const Cursor& c) const {
    return hash_index(c.idx, p.seed);
  }
  Cursor advance(const Cursor& c) const {
    const std::uint64_t idx = c.idx + 1;
    if (idx % p.block != 0) return {idx, c.left - 1};
    return {next_block(c.idx / p.block) * p.block, c.left - 1};
  }

  /// Post the chain's checksum to its striped result slot: one slot per
  /// chain, so no chain overwrites another's sum.
  void finish(Context& ctx, int t, std::uint64_t sum) {
    const auto slot = static_cast<std::size_t>(t);
    ctx.write_remote(sums.home(slot), sums.byte_addr(slot), 8);
    sums[slot] = static_cast<std::int64_t>(sum);
  }
  /// Replays the chain on the host: pure index arithmetic, no storage.
  bool verified(int t) const {
    std::uint64_t sum = 0;
    for (Cursor c = start(t); !done(c); c = advance(c)) sum += payload(c);
    return sums[static_cast<std::size_t>(t)] == static_cast<std::int64_t>(sum);
  }
};

/// One chain's walk: at each element, migrate to its home if needed, issue
/// the step's instructions and read its 16 B (payload + next pointer) from
/// the local channel.
template <class Chains>
Op<> chase_worker(Context& ctx, Chains* ch, int t) {
  std::uint64_t sum = 0;
  for (auto c = ch->start(t); !ch->done(c); c = ch->advance(c)) {
    ch->prefetch(c);
    const int home = ch->elems.home(c.idx);
    if (home != ctx.nodelet()) co_await ctx.migrate_to(home);
    co_await ctx.issue(kChaseCyclesPerElement);
    co_await ctx.read_local(ch->elems.byte_addr(c.idx), 16);
    sum += ch->payload(c);
  }
  ch->finish(ctx, t, sum);
}

/// Runs every chain from a remote-spawn tree, each tree node born on the
/// home nodelet of its chain's first element.  Serially spawning thousands
/// of chains from one thread would make the measurement ramp-bound — the
/// paper's own Fig 5 lesson, applied to the harness.
template <class Chains>
ChaseEmuResult run_chains(emu::Machine& m, Chains* ch, int threads,
                          double elements) {
  const Time elapsed = m.run_root([&](Context& ctx) {
    return emu::remote_spawn_tree(
        ctx, 0, threads,
        [ch](int t) { return ch->elems.home(ch->start(t).idx); },
        [ch](Context& c, int t) { return chase_worker(c, ch, t); });
  });

  ChaseEmuResult r;
  r.elapsed = elapsed;
  r.mb_per_sec = mb_per_sec(16.0 * elements, elapsed);
  r.migrations = m.stats.migrations;
  r.migrations_per_element =
      static_cast<double>(m.stats.migrations) / elements;
  r.verified = true;
  for (int t = 0; t < threads && r.verified; ++t) r.verified = ch->verified(t);
  return r;
}

}  // namespace

ChaseEmuResult run_chase_emu(const emu::SystemConfig& cfg,
                             const ChaseEmuParams& p) {
  const ChaseList list =
      build_chase_list(p.n, p.block, p.threads, p.mode, p.seed);
  emu::Machine m(cfg);
  ListChains ch(m, list);
  return run_chains(m, &ch, p.threads, static_cast<double>(p.n));
}

ChaseEmuResult run_chase_scale(const emu::SystemConfig& cfg,
                               const ChaseScaleParams& p) {
  EMUSIM_CHECK(p.block >= 1 && (p.block & (p.block - 1)) == 0);
  EMUSIM_CHECK(p.n >= p.block && (p.n & (p.n - 1)) == 0);
  EMUSIM_CHECK(p.threads >= 1);
  EMUSIM_CHECK(p.elems_per_thread >= p.block &&
               p.elems_per_thread % p.block == 0);
  emu::Machine m(cfg);
  LcgChains ch(m, p);
  return run_chains(m, &ch, p.threads,
                    static_cast<double>(p.threads) *
                        static_cast<double>(p.elems_per_thread));
}

}  // namespace emusim::kernels
