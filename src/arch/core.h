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
  /// state — only the cycle counters and the activity frame — and both
  /// accumulate integer-valued doubles that stay exact below 2^53, so
  /// this is bit-identical to calling idle_cycle(clocked) n times
  /// (asserted by the fastpath bit-identity test).
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
  const ActivityFrame& interval_activity() const { return interval_; }

 private:
  struct FrontendOp {
    MicroOp op;
    bool mispredicted = false;
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

  // Dense per-ROB-slot issue state read by do_issue, so the common
  // reject paths touch this 8-byte array instead of the 64-byte
  // RobEntry:
  //   kSlotIssued — entry issued;
  //   kSlotBlocked — some producer unissued (entry sits on that
  //                  producer's consumer list, off the scan set);
  //   >= 0 — memoized earliest cycle every source is ready (final once
  //          computed: done_cycle is fixed at issue and never changes,
  //          so the per-cycle readiness test is one compare).
  static constexpr std::int64_t kSlotIssued =
      std::numeric_limits<std::int64_t>::max();
  static constexpr std::int64_t kSlotBlocked = -1;

  void do_fetch();
  void do_rename();
  void do_issue();
  void do_commit();

  bool predict_branch(std::uint64_t pc);
  void update_predictor(std::uint64_t pc, bool taken);

  /// Store-forwarding scan: does an older in-flight store write the same
  /// word as this load? Returns 0 = no match, 1 = forwardable (store
  /// issued), -1 = must wait (store address not yet resolved).
  int forwarding_state(std::size_t rob_offset, std::uint64_t addr) const;

  /// MSHR availability / allocation for D-side misses.
  bool mshr_available() const;
  void mshr_allocate(std::int64_t release_cycle);
  /// Earliest outstanding MSHR release (INT64_MAX when none): the wake
  /// time for a scan stalled only on MSHR structural hazards.
  std::int64_t mshr_min_release() const;

  RobEntry& rob_at_seq(std::uint64_t seq);
  const RobEntry& rob_at_seq(std::uint64_t seq) const;
  int queue_class(OpClass cls) const;  ///< 0=int, 1=fp, 2=ls

  /// Memory hierarchy lookups; return total access latency in cycles and
  /// count the activity.
  int load_store_latency(std::uint64_t addr);
  int ifetch_latency(std::uint64_t pc);

  CoreConfig cfg_;
  TraceSource* trace_;
  GsharePredictor bpred_;
  /// Built only when cfg_.predictor == kTournament: its tables (~24 KiB
  /// at the default geometry) are dead weight under gshare.
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

  // Issue-scan set, one bit per ROB slot: entries do_issue must look at
  // (fresh from rename, or source-ready cycle memoized in slot_state_).
  // Issued entries and entries blocked on an unissued producer are off
  // the set — a blocked entry is parked on that producer's consumer
  // list (head/next form intrusive singly-linked lists over slots, -1
  // terminated) and re-inserted the moment the producer issues, which is
  // exactly when the old full scan could first observe it unblocked. An
  // entry sits on at most one list: its bit and its list membership are
  // mutually exclusive, and issue empties a producer's list before the
  // slot can ever be recycled by rename.
  std::vector<std::uint64_t> scan_mask_;
  std::vector<std::int32_t> consumer_head_;
  std::vector<std::int32_t> consumer_next_;

  // Issue-queue occupancy per class (int, fp, ls).
  int queue_count_[3] = {0, 0, 0};

  // Issue-scan sleep: when a full scan issues nothing and proves nothing
  // can become issuable before this cycle (all wake sources — producer
  // done_cycles and MSHR releases — are accounted, and no entry was
  // rejected on functional-unit limits), scans are skipped until then.
  // Rename resets it to 0: a newly dispatched entry may be ready at
  // once. Skipped scans are no-ops by construction, so results are
  // identical to scanning every cycle.
  std::int64_t issue_wake_cycle_ = 0;

  std::int64_t now_ = 0;
  CoreStats stats_;
  ActivityFrame interval_;
};

}  // namespace hydra::arch
