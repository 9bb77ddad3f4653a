// Figure 7: pointer chasing on the Sandy Bridge Xeon — bandwidth vs block
// size for several thread counts (full_block_shuffle) and by shuffle mode.
//
// Paper shape: strong locality sensitivity.  Small blocks waste most of
// each 64 B line and thrash DRAM rows; the best performance comes at block
// sizes of 256-4096 elements (≈ one 8 KiB DRAM page); performance declines
// as blocks grow beyond a page.  Peak utilization stays under ~25% of the
// machine's STREAM bandwidth (Fig 8).
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/chase_xeon.hpp"
#include "sweep_pool.hpp"

using namespace emusim;
using kernels::ChaseXeonParams;
using kernels::ShuffleMode;

void fig07_chase_xeon(bench::Harness& h, bench::SweepPool& pool) {
  const auto cfg = xeon::SystemConfig::sandy_bridge();
  // The list must be much larger than the LLC or the single-pass reuse of
  // the 4 elements per line is absorbed by the cache (the paper's lists are
  // DRAM-resident).  Quick mode keeps that property at ~2x the LLC.
  const std::size_t n = h.quick() ? (std::size_t{1} << 21)
                                  : (std::size_t{1} << 22);
  bench::record_config(h, cfg);
  h.config("n", static_cast<long long>(n));
  h.axes("block", "mb_per_sec");

  const std::vector<int> thread_counts =
      h.quick() ? std::vector<int>{4, 32} : std::vector<int>{1, 8, 16, 32};
  const std::vector<std::size_t> blocks =
      h.quick()
          ? std::vector<std::size_t>{1, 64, 1024, 16384}
          : std::vector<std::size_t>{1,   4,    16,   64,   256,  1024,
                                     4096, 16384, 65536};

  auto run = [&cfg, n](bench::PointSink& sink, std::size_t block,
                       int threads, ShuffleMode mode) {
    ChaseXeonParams p;
    p.n = n;
    p.block = block;
    p.threads = threads;
    p.mode = mode;
    const auto r = kernels::run_chase_xeon(cfg, p);
    if (!r.verified) sink.fail("chase verification failed");
    return r;
  };
  auto extras = [](const kernels::ChaseXeonResult& r) {
    const double accesses =
        static_cast<double>(r.row_hits) + static_cast<double>(r.row_misses);
    return std::vector<std::pair<std::string, double>>{
        {"sim_ms", to_seconds(r.elapsed) * 1e3},
        {"llc_hit_rate", r.llc_hit_rate},
        {"row_miss_fraction",
         accesses > 0 ? static_cast<double>(r.row_misses) / accesses : 0.0}};
  };

  const std::string table_a =
      "Fig 7a: Pointer chasing, Sandy Bridge Xeon, full_block_shuffle — "
      "MB/s vs block size";
  for (std::size_t b : blocks) {
    for (int t : thread_counts) {
      const std::string series = "t" + std::to_string(t);
      if (!h.enabled(series)) continue;
      if (n / b < static_cast<std::size_t>(t)) continue;
      pool.submit(
          [&run, &extras, table_a, series, b, t](bench::PointSink& sink) {
            sink.table(table_a);
            const auto r = run(sink, b, t, ShuffleMode::full_block_shuffle);
            sink.add(series, static_cast<double>(b), r.mb_per_sec, extras(r));
          });
    }
  }

  const int top_threads = h.quick() ? 4 : 32;
  h.config("top_threads", static_cast<long long>(top_threads));
  const std::string table_b =
      "Fig 7b: Pointer chasing, Sandy Bridge Xeon, top threads — MB/s "
      "by shuffle mode";
  const ShuffleMode modes[3] = {ShuffleMode::intra_block_shuffle,
                                ShuffleMode::block_shuffle,
                                ShuffleMode::full_block_shuffle};
  for (std::size_t b : blocks) {
    if (n / b < static_cast<std::size_t>(top_threads)) continue;
    for (auto mode : modes) {
      if (!h.enabled(to_string(mode))) continue;
      pool.submit([&run, &extras, table_b, b, top_threads,
                   mode](bench::PointSink& sink) {
        sink.table(table_b);
        const auto r = run(sink, b, top_threads, mode);
        sink.add(to_string(mode), static_cast<double>(b), r.mb_per_sec,
                 extras(r));
      });
    }
  }
  pool.wait(h);
}
