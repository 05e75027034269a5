// Microarchitectural parameters of the modelled core.
//
// Defaults approximate the Alpha 21264/21364 used by the paper: 4-wide
// fetch, 80-entry reorder buffer, clustered integer issue of 4, two FP
// pipes, 64 KB 2-way L1s and a large unified L2.
#pragma once

#include "arch/cache.h"
#include "arch/tournament_predictor.h"
#include "util/fields.h"

namespace hydra::arch {

struct CoreConfig {
  // Pipeline widths.
  int fetch_width = 4;
  int rename_width = 4;
  int issue_width = 6;
  int commit_width = 4;

  // Buffer capacities.
  int rob_entries = 80;
  int frontend_entries = 16;
  int int_queue_entries = 20;
  int fp_queue_entries = 15;
  int ls_queue_entries = 32;

  // Functional units per cycle.
  int int_alu_units = 4;
  int int_mul_units = 1;
  int fp_add_units = 2;
  int fp_mul_units = 1;
  int mem_ports = 2;

  // Execution latencies [cycles].
  int int_alu_latency = 1;
  int int_mul_latency = 7;
  int fp_add_latency = 4;
  int fp_mul_latency = 4;
  int l1_hit_latency = 3;
  int l2_hit_latency = 12;
  int tlb_miss_penalty = 30;
  int mispredict_penalty = 10;

  /// Main-memory access time in nanoseconds (frequency-independent; the
  /// core converts to cycles at its current clock, so lowering the clock
  /// with DVS shrinks the miss penalty in cycles).
  double memory_latency_ns = 80.0;

  // Caches.
  CacheConfig icache{64 * 1024, 64, 2};
  CacheConfig dcache{64 * 1024, 64, 2};
  CacheConfig l2{4 * 1024 * 1024, 128, 8};

  // Predictor.
  enum class Predictor { kGshare, kTournament };
  Predictor predictor = Predictor::kGshare;
  int bpred_index_bits = 13;
  /// 0 = bimodal. The synthetic workloads have i.i.d. branch outcomes,
  /// for which folding in (random) history only spreads training thin;
  /// see GsharePredictor.
  int bpred_history_bits = 0;
  /// Tournament geometry used when predictor == kTournament. The
  /// synthetic traces have i.i.d. outcomes, so a shorter local history
  /// and a larger history table avoid diluting per-branch training (the
  /// authentic 21264 geometry is TournamentConfig's own default).
  TournamentConfig tournament{/*local_history_bits=*/6,
                              /*local_table_bits=*/13,
                              /*global_bits=*/12};

  // --- Fidelity options (bench/abl_fidelity studies their effect) -----
  /// Maximum outstanding D-side misses (MSHRs); 0 = unlimited memory-
  /// level parallelism (the default timing model).
  int mshr_entries = 0;
  /// Model store->load forwarding and memory-dependence stalls through
  /// the ROB (a load whose address matches an older un-issued store
  /// waits; a match against an issued store forwards in 1 cycle).
  bool store_forwarding = false;

  /// Clock a standalone Core sizes its memory latency by until
  /// set_frequency(). A simulated tile sets its core's clock from
  /// SimConfig::f_nominal when it is built, so this field only sizes a
  /// standalone Core; it stays because it is part of every cache key.
  double nominal_frequency_hz = 3.0e9;
};

template <util::FieldsOf<CoreConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("fetch_width", c.fetch_width);
  f("rename_width", c.rename_width);
  f("issue_width", c.issue_width);
  f("commit_width", c.commit_width);
  f("rob_entries", c.rob_entries);
  f("frontend_entries", c.frontend_entries);
  f("int_queue_entries", c.int_queue_entries);
  f("fp_queue_entries", c.fp_queue_entries);
  f("ls_queue_entries", c.ls_queue_entries);
  f("int_alu_units", c.int_alu_units);
  f("int_mul_units", c.int_mul_units);
  f("fp_add_units", c.fp_add_units);
  f("fp_mul_units", c.fp_mul_units);
  f("mem_ports", c.mem_ports);
  f("int_alu_latency", c.int_alu_latency);
  f("int_mul_latency", c.int_mul_latency);
  f("fp_add_latency", c.fp_add_latency);
  f("fp_mul_latency", c.fp_mul_latency);
  f("l1_hit_latency", c.l1_hit_latency);
  f("l2_hit_latency", c.l2_hit_latency);
  f("tlb_miss_penalty", c.tlb_miss_penalty);
  f("mispredict_penalty", c.mispredict_penalty);
  f("memory_latency_ns", c.memory_latency_ns);
  f("icache", c.icache);
  f("dcache", c.dcache);
  f("l2", c.l2);
  f("predictor", c.predictor);
  f("bpred_index_bits", c.bpred_index_bits);
  f("bpred_history_bits", c.bpred_history_bits);
  f("tournament", c.tournament);
  f("mshr_entries", c.mshr_entries);
  f("store_forwarding", c.store_forwarding);
  f("nominal_frequency_hz", c.nominal_frequency_hz);
}

}  // namespace hydra::arch
