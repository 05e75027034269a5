// Trace-driven cycle-level out-of-order superscalar core.
//
// Models the stages that matter for DTM studies: a gateable fetch stage
// with gshare branch prediction and I-cache/ITB timing, rename/dispatch
// into a reorder buffer with per-class issue-queue occupancy limits,
// dependency-driven out-of-order issue against per-class functional-unit
// limits, D-cache/DTB/L2/memory timing on loads, and in-order commit.
// Every stage increments per-block activity counters (arch/activity.h)
// that drive the Wattch-style power model.
//
// Fetch gating (the paper's ILP technique) is a duty-cycled inhibition of
// the fetch stage: `set_fetch_gate_fraction(g)` gates fetch on fraction g
// of cycles, evenly striped. Mild gating is hidden by the machine's ILP;
// harsh gating starves the pipeline — exactly the behaviour the hybrid
// DTM policy exploits.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "arch/activity.h"
#include "arch/branch_predictor.h"
#include "arch/cache.h"
#include "arch/core_config.h"
#include "arch/isa.h"
#include "arch/tlb.h"
#include "arch/tournament_predictor.h"

namespace hydra::arch {

/// Lifetime counters exposed for tests and reporting.
struct CoreStats {
  std::uint64_t committed = 0;
  std::uint64_t cycles = 0;          ///< total, incl. idle/gated
  std::uint64_t fetch_gated_cycles = 0;
  std::uint64_t fetched = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t icache_misses = 0;
  std::uint64_t dcache_misses = 0;
  std::uint64_t l2_misses = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed) /
                             static_cast<double>(cycles);
  }
  double mispredict_rate() const {
    return branches == 0 ? 0.0
                         : static_cast<double>(mispredicts) /
                               static_cast<double>(branches);
  }
};

class Core {
 public:
  /// `trace` must outlive the core.
  Core(const CoreConfig& cfg, TraceSource& trace);

  /// Gate fetch on this fraction of cycles (0 = never, 1 = always).
  void set_fetch_gate_fraction(double g);
  double fetch_gate_fraction() const { return gate_fraction_; }

  /// Gate the issue stage on this fraction of cycles — the "local
  /// toggling" mechanism (slow the domain in thermal stress while the
  /// front end keeps running).
  void set_issue_gate_fraction(double g);
  double issue_gate_fraction() const { return issue_gate_fraction_; }

  /// Update the clock; converts the ns memory latency into cycles.
  void set_frequency(double hz);

  /// Advance one executed clock cycle.
  void cycle();

  /// Advance one cycle without executing (DVS switch stall or global
  /// clock gating). `clocked` selects whether the clock tree runs (a
  /// stalled-but-clocked pipeline burns base power; a gated clock does
  /// not).
  void idle_cycle(bool clocked);

  /// Advance `n` idle cycles in O(1). Idle cycles touch no pipeline
  /// state — only the integer cycle counters — so this is bit-identical
  /// to calling idle_cycle(clocked) n times (asserted by the fastpath
  /// bit-identity test).
  void idle_cycles(std::uint64_t n, bool clocked);

  /// Rebind the instruction source — the thread-migration seam. The new
  /// trace must outlive the core. Call flush_pipeline() first: in-flight
  /// ops belong to the old thread.
  void set_trace(TraceSource& trace) { trace_ = &trace; }

  /// Squash all in-flight state (front end, ROB, issue queues, MSHRs)
  /// without committing it, as a thread migration's context switch does.
  /// Architected history state (caches, TLBs, branch predictors) is
  /// deliberately kept — it belongs to the tile, and the migrated-in
  /// thread pays its cold misses naturally. Uncommitted instructions
  /// already drawn from the trace are lost (squashed work), which is the
  /// modelled pipeline-flush cost alongside the explicit stall cycles
  /// and flush energy the migration policy charges.
  void flush_pipeline();

  const CoreStats& stats() const { return stats_; }
  std::uint64_t committed() const { return stats_.committed; }
  std::uint64_t cycles() const { return stats_.cycles; }

  /// Activity accumulated since the last take; clears the frame.
  ActivityFrame take_interval_activity();
  ActivityFrame interval_activity() const;

 private:
  /// The fields of a fetched op that rename reads.
  struct FrontendOp {
    OpClass cls = OpClass::kIntAlu;
    std::uint8_t num_srcs = 0;
    bool mispredicted = false;
    std::int32_t src_dist[2] = {0, 0};
    std::uint64_t mem_addr = 0;
  };

  struct RobEntry {
    OpClass cls = OpClass::kIntAlu;
    std::uint8_t num_srcs = 0;
    std::uint64_t src_seq[2] = {0, 0};
    std::uint64_t seq = 0;
    std::uint64_t mem_addr = 0;
    std::int64_t done_cycle = 0;  ///< valid once issued
    bool issued = false;
    bool mispredicted = false;
  };

  // Dense per-ROB-slot issue state, so the scan's reject paths touch this
  // 8-byte array instead of the 64-byte RobEntry:
  //   kSlotIssued — entry issued;
  //   kSlotBlocked — some producer unissued (entry sits on that
  //                  producer's consumer list, off the scan set);
  //   >= 0 — the earliest cycle every source is ready (final once
  //          computed: done_cycle is fixed at issue and never changes).
  static constexpr std::int64_t kSlotIssued =
      std::numeric_limits<std::int64_t>::max();
  static constexpr std::int64_t kSlotBlocked = -1;

  /// Ready-cycle wheel: one scan-set-shaped bitmask per future cycle,
  /// modulo kWheelCycles.
  static constexpr std::int64_t kWheelCycles = 256;

  void do_fetch();
  void do_rename();
  void do_issue();
  void do_commit();

  /// Resolve slot `cur`'s readiness from its producers and put it where
  /// do_issue will next look for it: on its first unissued producer's
  /// consumer list, on the wheel at its ready cycle, or on the scan set.
  void place(std::size_t cur);
  /// OR every wheel bucket due by now_ into the scan set.
  void drain_wheel();

  void set_scan(std::size_t slot) {
    scan_mask_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void clear_scan(std::size_t slot) {
    scan_mask_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  void wheel_insert(std::size_t slot, std::int64_t ready_cycle) {
    const auto bucket =
        static_cast<std::size_t>(ready_cycle & (kWheelCycles - 1));
    wheel_[bucket * scan_mask_.size() + (slot >> 6)] |=
        std::uint64_t{1} << (slot & 63);
  }

  bool predict_branch(std::uint64_t pc);
  void update_predictor(std::uint64_t pc, bool taken);

  /// Store-forwarding scan: does an older in-flight store write the same
  /// word as this load? Returns 0 = no match, 1 = forwardable (store
  /// issued), -1 = must wait (store address not yet resolved).
  int forwarding_state(std::size_t rob_offset, std::uint64_t addr) const;

  /// MSHR availability / allocation for D-side misses.
  bool mshr_available() const;
  void mshr_allocate(std::int64_t release_cycle);

  /// Block activity in half-events: every increment the core makes is a
  /// multiple of 0.5, so integer sums convert to exactly the doubles a
  /// per-event double accumulation would hold.
  void count(floorplan::BlockId id, std::uint64_t half_events = 2) {
    half_events_[static_cast<std::size_t>(id)] += half_events;
  }

  /// Memory hierarchy lookups; return total access latency in cycles and
  /// count the activity. data_access() scans the D-cache set once and
  /// returns -1, touching nothing, on an L1 miss with every MSHR busy;
  /// otherwise it holds an MSHR for an L1 miss until the fill returns.
  int data_access(std::uint64_t addr);
  int ifetch_latency(std::uint64_t pc);

  CoreConfig cfg_;
  TraceSource* trace_;
  /// Only the predictor cfg_.predictor selects is built.
  std::optional<GsharePredictor> gshare_;
  std::optional<TournamentPredictor> tournament_;
  Cache icache_;
  Cache dcache_;
  Cache l2_;
  Tlb itb_;
  Tlb dtb_;

  // Fetch/issue gating duty-cycle accumulators.
  double gate_fraction_ = 0.0;
  double gate_accumulator_ = 0.0;
  double issue_gate_fraction_ = 0.0;
  double issue_gate_accumulator_ = 0.0;

  // Outstanding D-side miss release times (empty vector = unlimited).
  mutable std::vector<std::int64_t> mshrs_;

  int memory_latency_cycles_;

  // Front end, as a fixed-capacity ring bounded by frontend_entries —
  // the per-cycle fetch path must stay allocation-free (a deque here
  // allocated a node every few pushes).
  std::vector<FrontendOp> frontend_;
  std::size_t frontend_head_ = 0;
  std::size_t frontend_count_ = 0;
  bool fetch_halted_ = false;           ///< waiting on mispredict redirect
  std::int64_t redirect_cycle_ = -1;    ///< cycle fetch may resume (-1: unknown)
  std::int64_t icache_ready_cycle_ = 0; ///< fetch stalled until (miss)
  MicroOp pending_op_{};                ///< op whose I-fetch missed
  bool has_pending_op_ = false;

  // Reorder buffer as a ring.
  std::vector<RobEntry> rob_;
  std::vector<std::int64_t> slot_state_;  ///< see kSlot* above; tracks rob_
  std::size_t rob_head_ = 0;   ///< slot of oldest entry
  std::size_t rob_count_ = 0;
  std::uint64_t head_seq_ = 0; ///< seq of oldest in-ROB entry
  std::uint64_t next_seq_ = 0;

  // Where an unissued entry waits, one place at a time (place()):
  //  * the scan set (scan_mask_, one bit per ROB slot): entries do_issue
  //    visits, in slot order, which within the live region's one or two
  //    linear spans is age order. Ready entries, and entries whose ready
  //    cycle lies kWheelCycles or more ahead, which the scan re-checks.
  //  * a producer's consumer list (consumer_head_/consumer_next_,
  //    intrusive singly-linked lists over slots, -1 terminated): entries
  //    blocked on that unissued producer. Its issue re-places them,
  //    before the scan reaches them (consumers are younger), which is
  //    exactly when a scan of every entry could first see them unblocked.
  //    Issue empties a producer's list before commit can recycle its slot.
  //  * the wheel (wheel_, kWheelCycles scan-set-shaped masks): entries
  //    whose ready cycle is known and ahead; drain_wheel() returns each
  //    to the scan set by the top of its ready cycle's do_issue.
  // Visiting an entry before its ready cycle has no effect, so the scan
  // issues what a scan of every ROB entry would, in the same order.
  std::vector<std::uint64_t> scan_mask_;
  std::vector<std::int32_t> consumer_head_;
  std::vector<std::int32_t> consumer_next_;
  std::vector<std::uint64_t> wheel_;
  std::int64_t wheel_cycle_ = 0;     ///< first cycle not yet drained

  // Issue-queue occupancy and capacity per class (int, fp, ls).
  int queue_count_[3] = {0, 0, 0};
  int queue_cap_[3] = {0, 0, 0};

  std::int64_t now_ = 0;
  CoreStats stats_;
  std::array<std::uint64_t, floorplan::kNumBlocks> half_events_{};
  std::uint64_t interval_cycles_ = 0;
  std::uint64_t interval_clocked_cycles_ = 0;
};

}  // namespace hydra::arch
