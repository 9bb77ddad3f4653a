// Figure 6: pointer chasing on eight nodelets of the Emu Chick — bandwidth
// vs block size for several thread counts (full_block_shuffle), plus the
// three shuffle modes at the top thread count.
//
// Paper shape: performance is flat across block sizes (Emu is insensitive
// to spatial locality) except block size 1, where almost every hop
// migrates; it recovers by a block size of ~4-8.  Bandwidth scales with
// threads toward ~1 GB/s (about 80% of the machine's STREAM peak).
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_emu.hpp"
#include "sweep_pool.hpp"

using namespace emusim;
using kernels::ChaseEmuParams;
using kernels::ShuffleMode;

void fig06_chase_emu(bench::Harness& h, bench::SweepPool& pool) {
  const auto cfg = emu::SystemConfig::chick_hw();
  const std::size_t n = h.quick() ? (1u << 15) : (1u << 18);
  bench::record_config(h, cfg);
  h.config("n", static_cast<long long>(n));
  h.axes("block", "mb_per_sec");

  const std::vector<int> thread_counts =
      h.quick() ? std::vector<int>{64, 512}
                : std::vector<int>{64, 128, 256, 512};
  const std::vector<std::size_t> blocks =
      h.quick() ? std::vector<std::size_t>{1, 8, 64, 512}
                : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512};

  auto run = [&cfg, n](bench::PointSink& sink, std::size_t block,
                       int threads, ShuffleMode mode) {
    ChaseEmuParams p;
    p.n = n;
    p.block = block;
    p.threads = threads;
    p.mode = mode;
    const auto r = kernels::run_chase_emu(cfg, p);
    if (!r.verified) sink.fail("chase verification failed");
    return r;
  };

  const std::string table_a =
      "Fig 6a: Pointer chasing, Emu chick_hw, 8 nodelets, "
      "full_block_shuffle — MB/s vs block size";
  for (std::size_t b : blocks) {
    for (int t : thread_counts) {
      const std::string series = "t" + std::to_string(t);
      if (!h.enabled(series)) continue;
      if (n / b < static_cast<std::size_t>(t)) continue;
      pool.submit([&run, table_a, series, b, t](bench::PointSink& sink) {
        sink.table(table_a);
        const auto r = run(sink, b, t, ShuffleMode::full_block_shuffle);
        sink.add(series, static_cast<double>(b), r.mb_per_sec,
                 {{"sim_ms", to_seconds(r.elapsed) * 1e3},
                  {"migrations_per_element", r.migrations_per_element}});
      });
    }
  }

  const int top_threads = h.quick() ? 64 : 512;
  h.config("top_threads", static_cast<long long>(top_threads));
  const std::string table_b =
      "Fig 6b: Pointer chasing, Emu chick_hw, top threads — MB/s by "
      "shuffle mode";
  const ShuffleMode modes[3] = {ShuffleMode::intra_block_shuffle,
                                ShuffleMode::block_shuffle,
                                ShuffleMode::full_block_shuffle};
  for (std::size_t b : blocks) {
    if (n / b < static_cast<std::size_t>(top_threads)) continue;
    for (auto mode : modes) {
      if (!h.enabled(to_string(mode))) continue;
      pool.submit(
          [&run, table_b, b, top_threads, mode](bench::PointSink& sink) {
            sink.table(table_b);
            const auto r = run(sink, b, top_threads, mode);
            sink.add(to_string(mode), static_cast<double>(b), r.mb_per_sec,
                     {{"sim_ms", to_seconds(r.elapsed) * 1e3},
                      {"migrations_per_element", r.migrations_per_element}});
          });
    }
  }
  pool.wait(h);
}
