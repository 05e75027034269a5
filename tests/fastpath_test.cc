// Bit-identity and boundary tests for the hot-loop fast paths:
//
//  * Core::idle_cycles(n) must equal n calls to idle_cycle() bit for bit,
//    including across gated/ungated phases and resumed execution;
//  * the fused backward-Euler step operator must track the LU-solve
//    backward-Euler path to <= 1e-9 degC over a full hybrid-DTM run;
//  * System's bulk idle-skip must leave every RunResult field unchanged;
//  * chunk_cycles must never step past a thermal-interval or scheduled
//    event (gate-quantum / sensor / DVS) boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "arch/core.h"
#include "arch/core_config.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "util/fields.h"
#include "util/rng.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic_trace.h"

namespace hydra {
namespace {

// ------------------------------------------------------------ idle cycles

void expect_cores_identical(const arch::Core& a, const arch::Core& b) {
  const arch::CoreStats& sa = a.stats();
  const arch::CoreStats& sb = b.stats();
  EXPECT_EQ(sa.committed, sb.committed);
  EXPECT_EQ(sa.cycles, sb.cycles);
  EXPECT_EQ(sa.fetch_gated_cycles, sb.fetch_gated_cycles);
  EXPECT_EQ(sa.fetched, sb.fetched);
  EXPECT_EQ(sa.branches, sb.branches);
  EXPECT_EQ(sa.mispredicts, sb.mispredicts);
  EXPECT_EQ(sa.icache_misses, sb.icache_misses);
  EXPECT_EQ(sa.dcache_misses, sb.dcache_misses);
  EXPECT_EQ(sa.l2_misses, sb.l2_misses);
  const arch::ActivityFrame& fa = a.interval_activity();
  const arch::ActivityFrame& fb = b.interval_activity();
  // EXPECT_EQ on doubles is exact comparison — bit identity, not tolerance.
  EXPECT_EQ(fa.cycles, fb.cycles);
  EXPECT_EQ(fa.clocked_cycles, fb.clocked_cycles);
  for (std::size_t i = 0; i < fa.events.size(); ++i) {
    EXPECT_EQ(fa.events[i], fb.events[i]) << "activity block " << i;
  }
}

// Drives two cores over identical synthetic traces: `fast` takes each
// idle span as one idle_cycles(n) call, `ref` as n idle_cycle() calls.
// Executed cycles between spans prove the pipeline resumes identically.
TEST(FastPath, IdleCyclesBitIdenticalToLoop) {
  const workload::WorkloadProfile profile =
      workload::spec2000_profile("gzip");
  workload::SyntheticTrace trace_fast(profile);
  workload::SyntheticTrace trace_ref(profile);
  const arch::CoreConfig cfg;
  arch::Core fast(cfg, trace_fast);
  arch::Core ref(cfg, trace_ref);

  const struct {
    int executed;        // cycle() calls before the idle span
    std::uint64_t idle;  // idle span length
    bool clocked;        // stalled-but-clocked vs clock-gated
    double gate;         // fetch-gate fraction for the executed phase
  } phases[] = {
      {3000, 1, true, 0.0},     {2000, 4096, false, 0.0},
      {1500, 257, true, 0.3},   {999, 4096, false, 0.3},
      {1, 63, true, 0.85},      {0, 1000000, false, 0.85},
      {2500, 12345, true, 0.0},
  };
  for (const auto& phase : phases) {
    fast.set_fetch_gate_fraction(phase.gate);
    ref.set_fetch_gate_fraction(phase.gate);
    for (int i = 0; i < phase.executed; ++i) {
      fast.cycle();
      ref.cycle();
    }
    fast.idle_cycles(phase.idle, phase.clocked);
    for (std::uint64_t i = 0; i < phase.idle; ++i) {
      ref.idle_cycle(phase.clocked);
    }
    expect_cores_identical(fast, ref);
  }
  // Resume execution after the final span: downstream state must agree.
  for (int i = 0; i < 5000; ++i) {
    fast.cycle();
    ref.cycle();
  }
  expect_cores_identical(fast, ref);
  EXPECT_GT(fast.committed(), 0u);
}

// ---------------------------------------------------------- fused BE step

// A full hybrid-DTM run with the fused step operator must reproduce the
// LU-solve backward-Euler trajectory: same cycle count (no policy
// decision flipped) and temperatures within 1e-9 degC.
TEST(FastPath, FusedBEMatchesBackwardEulerOverHybridRun) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.run_instructions = 400'000;
  cfg.warmup_instructions = 100'000;

  cfg.fused_thermal = false;
  sim::System lu_sys(workload::spec2000_profile("gzip"), cfg,
                     sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg));
  const sim::RunResult lu = lu_sys.run();

  cfg.fused_thermal = true;
  sim::System fused_sys(workload::spec2000_profile("gzip"), cfg,
                        sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg));
  const sim::RunResult fused = fused_sys.run();

  EXPECT_EQ(lu.instructions, fused.instructions);
  EXPECT_EQ(lu.cycles, fused.cycles);
  EXPECT_EQ(lu.dvs_transitions, fused.dvs_transitions);
  EXPECT_EQ(lu.violation_fraction, fused.violation_fraction);
  EXPECT_NEAR(lu.max_true_celsius, fused.max_true_celsius, 1e-9);
  EXPECT_NEAR(lu.hottest_mean_celsius, fused.hottest_mean_celsius, 1e-9);
  EXPECT_NEAR(lu.mean_power_watts, fused.mean_power_watts, 1e-9);
}

// -------------------------------------------------------- bulk idle skip

// Clock-gating quanta and stalled DVS transitions are the idle spans the
// bulk skip advances in O(1); with a clock-gating policy on a hot
// workload it must produce the same RunResult, field for field, as the
// per-cycle reference loop behind System's test seam.
TEST(FastPath, BulkIdleSkipResultIdentical) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.run_instructions = 300'000;
  cfg.warmup_instructions = 80'000;
  cfg.dvs_stall = true;

  sim::System ref_sys(
      workload::spec2000_profile("art"), cfg,
      sim::make_policy(sim::PolicyKind::kClockGating, {}, cfg));
  ref_sys.set_per_cycle_idle_for_test(true);
  const sim::RunResult ref = ref_sys.run();

  sim::System fast_sys(
      workload::spec2000_profile("art"), cfg,
      sim::make_policy(sim::PolicyKind::kClockGating, {}, cfg));
  const sim::RunResult fast = fast_sys.run();

  // The policy must actually have gated the clock, or the test proves
  // nothing about the skipped spans.
  EXPECT_GT(ref.clock_gated_fraction, 0.0);

  EXPECT_EQ(util::diff_fields(ref, fast), "");
}

// ------------------------------------------------------------ chunk_cycles

// Property: a chunk never crosses the thermal-interval boundary, never
// exceeds the responsiveness cap, always makes progress, and lands on
// the first cycle boundary at or after the next scheduled event unless
// one of the caps bit first.
TEST(FastPath, ChunkCyclesNeverSkipsBoundaries) {
  util::Rng rng(0xfa57f007ULL);
  for (int i = 0; i < 200'000; ++i) {
    const double t = rng.uniform(0.0, 1e-2);
    // Events behind, at, and ahead of `t`, down to sub-cycle distances.
    const double next_event_t = t + rng.uniform(-1e-6, 2e-3);
    const double freq_hz = rng.uniform(0.5e9, 4e9);
    const long long interval_remaining =
        1 + static_cast<long long>(rng.next_u64() % 20'000);

    const long long n =
        sim::chunk_cycles(next_event_t, t, freq_hz, interval_remaining);

    ASSERT_GE(n, 1) << "chunk must make progress";
    ASSERT_LE(n, 4096) << "responsiveness cap";
    ASSERT_LE(n, interval_remaining)
        << "chunk crossed the thermal-interval boundary";

    const double cycles_to_event = (next_event_t - t) * freq_hz;
    long long to_event = static_cast<long long>(std::ceil(cycles_to_event));
    if (to_event < 1) to_event = 1;
    if (n == to_event && cycles_to_event > 0.0) {
      // Uncapped: the cycle before last is strictly before the event
      // (we stop at the first boundary at/after it, never beyond).
      ASSERT_LT(t + static_cast<double>(n - 1) / freq_hz, next_event_t);
      ASSERT_GE(t + static_cast<double>(n) / freq_hz, next_event_t);
    } else {
      // Capped by the interval boundary or the 4096-cycle cap: the chunk
      // must then stop short of (or at) the event, not overshoot it.
      ASSERT_LE(n, to_event);
    }
  }

  // Deterministic edges: event in the past and a one-cycle interval.
  EXPECT_EQ(sim::chunk_cycles(0.0, 1.0, 1e9, 100), 1);
  EXPECT_EQ(sim::chunk_cycles(2.0, 1.0, 1e9, 1), 1);
}

}  // namespace
}  // namespace hydra
