// Emu system configurations.
//
// Four named design points cover the paper's experiments:
//   chick_hw          — the Chick prototype as measured (Fig 4-9): one
//                       150 MHz Gossamer core per nodelet, 64 threadlets,
//                       NCDRAM-1600, migration engine ~9 M migrations/s.
//   chick_as_simulated — the same machine as the vendor's architectural
//                       simulator models it: identical except the migration
//                       engine sustains ~16 M migrations/s (the unmodeled
//                       hardware bottleneck the paper diagnoses in Fig 10).
//   chick_fullspeed   — the production design point: 300 MHz, 4 GCs per
//                       nodelet (256 threadlets), NCDRAM-2133.
//   fullspeed_multinode — chick_fullspeed scaled to N node cards (Fig 11
//                       uses 8 nodes = 64 nodelets).
//   chick_fullspeed_nx — fullspeed_multinode addressed by total nodelet
//                       count (64/256/1024 for the ROADMAP scaling sweeps).
#pragma once

#include <string>

#include "mem/dram.hpp"

namespace emusim::emu {

struct SystemConfig {
  std::string name = "chick_hw";

  // --- topology ---------------------------------------------------------
  int nodes = 1;
  int nodelets_per_node = 8;
  int gcs_per_nodelet = 1;

  // --- Gossamer cores ----------------------------------------------------
  double gc_clock_hz = 150e6;
  int threadlet_slots_per_gc = 64;

  // --- memory ------------------------------------------------------------
  mem::DramTiming dram = mem::DramTiming::ncdram_chick();

  // --- migration engine (per node) ----------------------------------------
  /// Sustained migration throughput of one node's migration engine.  The
  /// Chick hardware measures ~9 M/s via ping-pong; the vendor simulator
  /// models ~16 M/s (paper Section IV-D).
  double migrations_per_sec = 9e6;
  /// In-flight latency of a single migration (paper: ~1-2 us).
  Time migration_latency = us(1.4);
  /// Size of a Gossamer thread context (16 GP registers + PC + SP + status;
  /// paper: < 200 bytes).  Used for fabric occupancy on inter-node hops.
  std::size_t thread_context_bytes = 200;

  // --- thread management -------------------------------------------------
  /// Parent-side instructions to execute a spawn.
  int spawn_issue_cycles = 30;
  /// Child-side instructions before the first user operation (register
  /// setup, argument loads).
  int thread_startup_cycles = 60;

  // --- inter-node fabric (RapidIO) ----------------------------------------
  Time internode_latency = us(0.7);
  /// RapidIO egress per node card (gen2 x4-lane class); at ~200 B per
  /// context this sustains ~25 M inter-node migrations/s per link.
  double internode_bytes_per_sec = 5e9;

  int total_nodelets() const { return nodes * nodelets_per_node; }
  /// One hop across the intra-node crossbar: half the full migration
  /// latency (a migration traverses the fabric to the destination nodelet
  /// and back-pressures the same path).  This is the transit cost of
  /// anything crossing nodelets within a node without moving a full thread
  /// context: the request and response legs of a same-node fetch-atomic.
  Time intranode_hop() const { return migration_latency / 2; }
  int slots_per_nodelet() const {
    return gcs_per_nodelet * threadlet_slots_per_gc;
  }
  Time cycle() const { return period_from_hz(gc_clock_hz); }

  /// Topology caps enforced by validate().  Nodelet and slot indices (and
  /// their products with small factors) are ints throughout the machine
  /// model; capping each factor at 2^20 leaves >2000x headroom to INT_MAX
  /// for every per-nodelet index computation while comfortably covering the
  /// 64-1024 nodelet scaling sweeps (ROADMAP item 3).
  static constexpr int kMaxTotalNodelets = 1 << 20;
  static constexpr int kMaxSlotsPerNodelet = 1 << 20;

  /// Abort (EMUSIM_CHECK) on non-positive topology factors, index-overflow
  /// headroom violations, or non-physical rate/latency parameters.  Machine
  /// construction validates; the named factories validate what they build.
  void validate() const;

  static SystemConfig chick_hw();
  static SystemConfig chick_as_simulated();
  static SystemConfig chick_fullspeed();
  static SystemConfig fullspeed_multinode(int nodes);
  /// The scaling family by total nodelet count: nodelets must be a positive
  /// multiple of 8 (one node card = 8 nodelets).  64 reproduces Fig 11's
  /// projection; 256 and 1024 are the beyond-paper sweep points.
  static SystemConfig chick_fullspeed_nx(int nodelets);
};

}  // namespace emusim::emu
