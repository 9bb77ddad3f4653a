#include "sim/trace.hpp"


namespace emusim::sim {

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::thread_spawn: return "thread_spawn";
    case TraceKind::thread_start: return "thread_start";
    case TraceKind::thread_end: return "thread_end";
    case TraceKind::migrate_out: return "migrate_out";
    case TraceKind::migrate_in: return "migrate_in";
    case TraceKind::mem_read: return "mem_read";
    case TraceKind::mem_write: return "mem_write";
    case TraceKind::remote_atomic: return "remote_atomic";
  }
  return "?";
}

std::size_t Tracer::count(TraceKind kind, std::int32_t who) const {
  std::size_t n = 0;
  for_each([&](const TraceRecord& r) {
    if (r.kind == kind && (who < 0 || r.a == who)) ++n;
  });
  return n;
}

std::vector<std::vector<std::uint64_t>> Tracer::migration_matrix(
    int num_nodelets, std::uint64_t* out_of_range) const {
  std::vector<std::vector<std::uint64_t>> m(
      static_cast<std::size_t>(num_nodelets),
      std::vector<std::uint64_t>(static_cast<std::size_t>(num_nodelets), 0));
  std::uint64_t oor = 0;
  for_each([&](const TraceRecord& r) {
    if (r.kind != TraceKind::migrate_out) return;
    if (r.a >= 0 && r.a < num_nodelets && r.b >= 0 && r.b < num_nodelets) {
      ++m[static_cast<std::size_t>(r.a)][static_cast<std::size_t>(r.b)];
    } else {
      ++oor;
    }
  });
  if (out_of_range != nullptr) *out_of_range = oor;
  return m;
}

}  // namespace emusim::sim
