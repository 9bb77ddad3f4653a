#include "xeon/config.hpp"

#include "common/check.hpp"

namespace emusim::xeon {

void SystemConfig::validate() const {
  EMUSIM_CHECK_MSG(line_bytes >= 8 && (line_bytes & (line_bytes - 1)) == 0,
                   "line_bytes must be a power of two >= 8");
  EMUSIM_CHECK_MSG(llc_ways >= 1 && llc_ways <= 255,
                   "llc_ways must be in [1, 255]");
  EMUSIM_CHECK_MSG(llc_bytes / static_cast<std::size_t>(line_bytes) >=
                       static_cast<std::size_t>(llc_ways),
                   "llc_bytes must hold at least llc_ways lines");
  EMUSIM_CHECK_MSG(cores >= 1 && sockets >= 1 && cores % sockets == 0,
                   "cores must split evenly across sockets");
  EMUSIM_CHECK_MSG(channels >= 1, "channels must be >= 1");
  EMUSIM_CHECK_MSG(lfb_per_core >= 1, "lfb_per_core must be >= 1");
}

SystemConfig SystemConfig::sandy_bridge() {
  SystemConfig c;
  c.name = "sandy_bridge";
  c.cores = 16;
  c.clock_hz = 2.6e9;
  c.lfb_per_core = 10;
  // One socket's L3: threads mostly hit their own socket's cache, so the
  // per-socket capacity is the right working-set threshold.
  c.llc_bytes = std::size_t{20} << 20;
  c.llc_ways = 20;
  c.hit_latency = ns(22);
  c.dram = mem::DramTiming::ddr3_1600();
  c.channels = 4;  // 51.2 GB/s peak, as in the paper
  return c;
}

SystemConfig SystemConfig::haswell() {
  SystemConfig c;
  c.name = "haswell";
  c.cores = 56;  // 4 sockets x 14 cores
  c.sockets = 4;
  c.remote_socket_latency = ns(70);
  c.clock_hz = 2.2e9;
  c.lfb_per_core = 10;
  c.llc_bytes = std::size_t{35} << 20;  // one socket's L3
  c.llc_ways = 20;
  c.hit_latency = ns(20);
  c.dram = mem::DramTiming::ddr4_1333();  // rated 2133, clocked 1333
  c.channels = 16;                        // 4 channels per socket
  return c;
}

}  // namespace emusim::xeon
