#include "xeon/machine.hpp"

namespace emusim::xeon {

namespace {
const SystemConfig& validated(const SystemConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

Machine::Machine(const SystemConfig& cfg)
    : cfg_(validated(cfg)),
      cycle_(cfg_.cycle()),
      llc_(cfg.llc_bytes, cfg.llc_ways, cfg.line_bytes) {
  for (int c = 0; c < cfg.channels; ++c) channels_.emplace_back(eng_, cfg.dram);
  for (int c = 0; c < cfg.cores; ++c) cores_.emplace_back(eng_, cfg_);
}

std::uint64_t Machine::allocate(std::uint64_t bytes, std::uint64_t align) {
  EMUSIM_CHECK(align > 0 && (align & (align - 1)) == 0);
  brk_ = (brk_ + align - 1) & ~(align - 1);
  const std::uint64_t addr = brk_;
  brk_ += bytes;
  EMUSIM_CHECK_MSG(brk_ >= addr && (brk_ == 0 || llc_.addressable(brk_ - 1)),
                   "allocation beyond the LLC tag range");
  return addr;
}

void Machine::install_line(std::uint64_t line, Time ready_at, bool dirty) {
  const auto victim = llc_.insert(line, ready_at, dirty);
  if (victim.evicted_dirty) {
    channel_of(victim.dirty_addr)
        .write(channel_local_addr(victim.dirty_addr),
               static_cast<std::uint32_t>(cfg_.line_bytes));
  }
}

void Machine::prefetch_advance(int core_idx, std::uint64_t line) {
  Core& c = core(core_idx);
  const std::uint64_t line_sz = static_cast<std::uint64_t>(cfg_.line_bytes);

  // Match the access against the core's tracked streams: a repeat of a
  // stream head is ignored, a successor advances the stream, anything else
  // reallocates the least-recently-used detector slot.
  Core::Stream* s = nullptr;
  Core::Stream* lru = &c.streams[0];
  for (auto& st : c.streams) {
    if (st.last_line == line) return;  // revisit within the line
    if (st.last_line != ~0ULL && line == st.last_line + line_sz) {
      s = &st;
      break;
    }
    if (st.stamp < lru->stamp) lru = &st;
  }
  if (s != nullptr) {
    ++s->run_length;
  } else {
    s = lru;
    s->run_length = 1;
  }
  s->last_line = line;
  s->stamp = ++c.stream_clock;
  if (s->run_length < cfg_.prefetch_trigger) return;

  for (int k = 1; k <= cfg_.prefetch_degree; ++k) {
    const std::uint64_t pl = line + static_cast<std::uint64_t>(k) * line_sz;
    if (llc_.contains(pl)) continue;
    const Time done = channel_of(pl).access(
        channel_local_addr(pl), static_cast<std::uint32_t>(cfg_.line_bytes),
        /*is_write=*/false);
    install_line(pl, done + cfg_.hit_latency, /*dirty=*/false);
    ++stats.prefetches;
  }
}

void Machine::issue_fill(int core_idx, std::uint64_t line,
                         std::coroutine_handle<> h) {
  Time done = channel_of(line).access(
      channel_local_addr(line), static_cast<std::uint32_t>(cfg_.line_bytes),
      /*is_write=*/false);
  // Cross-socket fills pay the QPI hop on top of the DRAM access.
  if (socket_of_addr(line) != socket_of_core(core_idx)) {
    done += cfg_.remote_socket_latency;
  }
  install_line(line, done, /*dirty=*/false);
  // One event releases the fill buffer, then resumes the load.  This is the
  // order two same-time events with adjacent sequence numbers would run in,
  // and everything the release schedules is queued after both.
  eng_.call_at(done, [this, core_idx, h] {
    core(core_idx).lfb_release();
    h.resume();
  });
}

void Machine::demand_load(int core_idx, std::uint64_t addr,
                          std::coroutine_handle<> h) {
  const std::uint64_t line = llc_.line_addr(addr);
  prefetch_advance(core_idx, line);
  const Time earliest = eng_.now() + cfg_.hit_latency;
  if (const auto hit = llc_.lookup(line)) {
    eng_.schedule(llc_.usable(hit, earliest), h);
    return;
  }
  llc_.advance(earliest);  // lets the LLC prune fills that have landed
  ++stats.demand_misses;
  Core& c = core(core_idx);
  if (c.lfb_try_acquire()) {
    issue_fill(core_idx, line, h);
  } else {
    c.lfb_wait([this, core_idx, line, h] { issue_fill(core_idx, line, h); });
  }
}

void Machine::posted_store(int core_idx, std::uint64_t addr) {
  const std::uint64_t line = llc_.line_addr(addr);
  if (const auto hit = llc_.lookup(line)) {
    llc_.mark_dirty(hit);
    return;
  }
  // Write-allocate: fetch the line (RFO) and install it dirty.  Posted —
  // the store buffer hides the latency; bandwidth is still charged.
  (void)core_idx;
  const Time done = channel_of(line).access(
      channel_local_addr(line), static_cast<std::uint32_t>(cfg_.line_bytes),
      /*is_write=*/false);
  install_line(line, done, /*dirty=*/true);
}

void Machine::posted_store_nt(std::uint64_t line_addr) {
  channel_of(line_addr)
      .write(channel_local_addr(line_addr),
             static_cast<std::uint32_t>(cfg_.line_bytes));
}

namespace {

sim::Task pool_worker(Machine* m, CpuContext ctx, std::vector<TaskFn>* tasks,
                      std::size_t* next, int overhead_cycles) {
  while (*next < tasks->size()) {
    const std::size_t i = (*next)++;
    if (overhead_cycles > 0) {
      co_await ctx.compute(static_cast<std::uint64_t>(overhead_cycles));
    }
    co_await (*tasks)[i](ctx);
    ++m->stats.tasks_run;
  }
}

}  // namespace

Time run_task_pool(Machine& m, int threads, std::vector<TaskFn> tasks,
                   int per_task_overhead_cycles) {
  EMUSIM_CHECK(threads >= 1);
  const Time t0 = m.engine().now();
  std::size_t next = 0;
  std::vector<sim::Task> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.push_back(pool_worker(&m, CpuContext(m, t % m.cfg().cores),
                                  &tasks, &next, per_task_overhead_cycles));
  }
  for (auto& w : workers) w.start();
  m.engine().run();
  return m.engine().now() - t0;
}

}  // namespace emusim::xeon
