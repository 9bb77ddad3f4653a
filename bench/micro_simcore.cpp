// google-benchmark microbenchmarks of the simulator itself: DES event
// throughput, coroutine task churn, FIFO-server accounting, DRAM channel
// accesses, and cache probes.  A stock google-benchmark program: select
// scenarios with --benchmark_filter, write JSON with --benchmark_out.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "mem/dram.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "xeon/cache.hpp"

namespace {

using namespace emusim;

// --- engine scenarios ------------------------------------------------------

void BM_EngineScheduleDrain(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < batch; ++i) {
      eng.call_at(static_cast<Time>(i), [] {});
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EngineScheduleDrain)->Arg(1024)->Arg(65536);

// Callback-heavy: chains of plain callbacks, each capturing 24 bytes (an
// engine pointer plus two counters) and re-posting itself — the shape of
// machine-component events such as prefetch completions and LFB releases.
// 24 bytes exceeds libstdc++ std::function's inline buffer; SmallFn keeps
// it inline.
void post_chain(sim::Engine& eng, std::uint64_t remaining, Time stride) {
  eng.call_in(stride, [&eng, remaining, stride] {
    if (remaining > 1) post_chain(eng, remaining - 1, stride);
  });
}

void BM_EngineCallbackHeavy(benchmark::State& state) {
  const int chains = 256;
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int c = 0; c < chains; ++c) {
      post_chain(eng, static_cast<std::uint64_t>(hops),
                 static_cast<Time>(c % 17 + 1));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * chains * hops);
}
BENCHMARK(BM_EngineCallbackHeavy)->Arg(64)->Arg(1024);

sim::Task sleeper_task(sim::Engine& eng, int hops, Time delay) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(delay);
}

void BM_CoroutineHops(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    auto t = sleeper_task(eng, hops, ns(1));
    t.start();
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineHops)->Arg(1024)->Arg(16384);

// Zero-delay yield: many tasks repeatedly co_await sleep(0) at one
// timestamp — the spawn-tree fairness pattern from the emu runtime
// (parallel_apply, sync wakeups, semaphore grants).  The engine routes
// these through the FIFO fast lane instead of a heap sift per yield.
void BM_EngineZeroDelayYield(benchmark::State& state) {
  const int tasks = 64;
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<sim::Task> ts;
    ts.reserve(tasks);
    for (int i = 0; i < tasks; ++i) {
      ts.push_back(sleeper_task(eng, hops, 0));
    }
    for (auto& t : ts) t.start();
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * tasks * hops);
}
BENCHMARK(BM_EngineZeroDelayYield)->Arg(256)->Arg(4096);

// --- component microbenchmarks ---------------------------------------------

void BM_FifoServerPost(benchmark::State& state) {
  sim::Engine eng;
  sim::FifoServer srv(eng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(srv.post(ns(5)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoServerPost);

void BM_DramAccess(benchmark::State& state) {
  sim::Engine eng;
  mem::DramChannel ch(eng, mem::DramTiming::ddr3_1600());
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.access(addr, 64, false));
    addr += 7919 * 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

void BM_CacheLookupHit(benchmark::State& state) {
  xeon::SetAssocCache cache(1 << 20, 16, 64);
  for (std::uint64_t a = 0; a < (1 << 19); a += 64) {
    cache.insert(a, 0, false);
  }
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(addr));
    addr = (addr + 4096) & ((1 << 19) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookupHit);

}  // namespace

BENCHMARK_MAIN();
