// Co-simulation system: core <-> power <-> thermal <-> sensors <-> DTM.
//
// The loop follows the paper's methodology: the core runs in 10k-cycle
// accounting intervals whose average per-block power drives the RC
// thermal model; sensors are sampled at 10 kHz and feed the DTM policy;
// the policy's commands actuate fetch gating immediately, global clock
// gating in fixed quanta, and DVS through a transition state machine
// with 10 us switching time (stalling the pipeline in the "stall"
// variant). Temperatures are initialised to the workload's steady state
// and a warm-up period runs before statistics are gathered.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "arch/core.h"
#include "core/dtm_policy.h"
#include "core/guarded_policy.h"
#include "fault/fault_injector.h"
#include "floorplan/floorplan.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "power/voltage_freq.h"
#include "sensor/sensor.h"
#include "sim/model_cache.h"
#include "sim/sim_config.h"
#include "thermal/model_builder.h"
#include "thermal/solver.h"
#include "util/cancel.h"
#include "workload/synthetic_trace.h"

namespace hydra::sim {

/// Outcome of one measured run.
struct RunResult {
  std::string benchmark;
  std::string policy;

  double wall_seconds = 0.0;  ///< measured execution time (simulated)
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;

  double max_true_celsius = 0.0;        ///< hottest block, whole run
  double violation_fraction = 0.0;      ///< time with T_true > emergency
  double above_trigger_fraction = 0.0;  ///< time with T_true > trigger
  std::size_t dvs_transitions = 0;
  double mean_gate_fraction = 0.0;      ///< time-weighted fetch gating
  double mean_issue_gate_fraction = 0.0; ///< time-weighted issue gating
  double dvs_low_fraction = 0.0;        ///< time at a non-nominal DVS level
  double clock_gated_fraction = 0.0;    ///< time with the clock stopped
  double mean_power_watts = 0.0;
  std::string hottest_block;            ///< block with highest mean temp
  double hottest_mean_celsius = 0.0;
  /// Fraction of measured cycles spent in idle spans (clock-gated quanta
  /// or stalled DVS transitions) — the spans the bulk idle-skip fast path
  /// advances in O(1). Counted identically whether the fast path or the
  /// per-cycle reference loop executed them.
  double idle_skip_fraction = 0.0;
  /// Times the fused-BE numerical guard rejected a step (NaN/Inf or
  /// divergence) during this run and fell back to the reference LU
  /// scheme. Zero on every healthy run.
  std::uint64_t solver_guard_trips = 0;

  // --- Sensor-fault / supervision metrics (zero without a campaign) ---
  std::uint64_t faulted_samples = 0;     ///< sensor-samples corrupted
  std::uint64_t sensor_rejections = 0;   ///< readings substituted by guard
  std::uint64_t quarantine_entries = 0;  ///< healthy->quarantined edges
  double failsafe_fraction = 0.0;        ///< time in fail-safe clock gating
  double fault_window_fraction = 0.0;    ///< time with >=1 active fault
  /// Time with T_true above emergency while a fault was active, as a
  /// fraction of the whole measured window.
  double fault_violation_fraction = 0.0;

  // --- Many-core metrics (defaults = the single-core System's values) ---
  std::size_t cores = 1;                  ///< tiles on the simulated die
  std::uint64_t thread_migrations = 0;    ///< applied thread migrations
  /// Time-weighted mean of (hottest tile Tmax - coolest tile Tmax):
  /// thermal imbalance across the die. Zero on a single-core run.
  double core_temp_spread_celsius = 0.0;
  /// Time with any tile under a non-trivial power-budget arbiter floor.
  double budget_throttled_fraction = 0.0;

  bool thermally_safe() const { return violation_fraction == 0.0; }
};

/// Size of the next advance_until chunk: up to the next scheduled event,
/// never past the thermal-interval boundary, capped at 4096 cycles so
/// event-time comparisons stay responsive. Exposed as a free function so
/// the fastpath property test can fuzz the boundary guarantees directly.
/// The order of operations (clamp, then the two mins) is load-bearing:
/// the measured wall time accumulates as n / freq per chunk, so chunk
/// geometry must not change across code paths or results drift.
inline long long chunk_cycles(double next_event_t, double t, double freq_hz,
                              long long interval_cycles_remaining) {
  long long n =
      static_cast<long long>(std::ceil((next_event_t - t) * freq_hz));
  if (n < 1) n = 1;
  n = std::min(n, interval_cycles_remaining);
  return std::min<long long>(n, 4096);
}

/// Periodic observation hook for examples/diagnostics (one call per
/// thermal interval).
struct StepTrace {
  double time_seconds = 0.0;
  double max_true_celsius = 0.0;
  util::Volts voltage{};
  util::Hertz frequency{};
  double gate_fraction = 0.0;
  bool clock_gated = false;
  std::uint64_t committed = 0;
  double power_watts = 0.0;
};

class System {
 public:
  /// `policy` may be null (baseline: no DTM). The system owns the policy.
  System(const workload::WorkloadProfile& profile, const SimConfig& cfg,
         std::unique_ptr<core::DtmPolicy> policy);

  /// Steady-state init + warm-up + measured run. `cancel`, when given,
  /// is polled at chunk granularity: a requested stop (explicit cancel
  /// or expired deadline) unwinds with the matching typed exception
  /// (util::CancelledError / util::TimeoutError), leaving the System in
  /// an unspecified but destructible state. Deterministic runs pass
  /// nullptr and pay a single predicted-false branch per chunk.
  RunResult run(const util::CancelToken* cancel = nullptr);

  /// Test seam: poison the next fused-BE step (see
  /// TransientSolver::inject_fused_fault_for_test). Lets tests assert
  /// the guard event is visible end-to-end in RunResult and --metrics.
  void inject_solver_fault_for_test() {
    solver_.inject_fused_fault_for_test();
  }

  /// Test seam: advance idle spans one idle_cycle() at a time instead of
  /// in O(1). The per-cycle loop is the reference twin of the bulk skip;
  /// fastpath_test asserts both give the same RunResult bytes.
  void set_per_cycle_idle_for_test(bool on) { per_cycle_idle_ = on; }

  /// Install an observer called once per thermal interval during the
  /// measured run.
  void set_trace_callback(std::function<void(const StepTrace&)> cb) {
    trace_cb_ = std::move(cb);
  }

  const power::DvsLadder& ladder() const { return ladder_; }
  const floorplan::Floorplan& floorplan() const { return fp_; }

 private:
  void initialize_thermal_state();
  void warmup();
  /// Advance until `target_committed` instructions have committed. With
  /// `run_out_interval`, additionally continue to the next thermal
  /// interval boundary (used after warm-up: stepping the solver with a
  /// partial-interval dt would factorise a fresh LU nearly every run).
  void advance_until(std::uint64_t target_committed, bool measure,
                     bool run_out_interval = false);
  void thermal_and_power_step(bool measure);
  void sensor_event(bool measure);
  void apply_dvs_level(std::size_t level);
  /// Earliest pending scheduled event (sensor tick, DVS-transition end,
  /// clock-gate quantum boundary). Invariant between events, so
  /// advance_until recomputes it only after one fires.
  double next_event_time() const;

  // Configuration-derived state. Floorplan, thermal model and LU
  // factorisations are shared read-only across all Systems with the same
  // (package, time_scale) via the process-wide ModelCache.
  SimConfig cfg_;
  std::shared_ptr<const SharedModel> shared_;
  const floorplan::Floorplan& fp_;
  const thermal::ThermalModel& model_;
  power::VoltageFrequencyCurve vf_curve_;
  power::DvsLadder ladder_;
  power::PowerModel power_;
  workload::SyntheticTrace trace_;
  arch::Core core_;
  sensor::SensorBank sensors_;
  std::unique_ptr<core::DtmPolicy> policy_;
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Non-owning view of policy_ when it is a GuardedPolicy (for stats).
  core::GuardedPolicy* guard_ = nullptr;
  thermal::TransientSolver solver_;
  bool per_cycle_idle_ = false;  ///< reference idle loop (test seam)

  // Scaled event periods [s].
  double sensor_period_s_ = 0.0;
  double switch_time_s_ = 0.0;
  double gate_quantum_ = 0.0;

  // Dynamic state.
  double t_ = 0.0;             ///< simulation time [s]
  double next_sensor_t_ = 0.0;
  double freq_hz_ = 0.0;          ///< clock at the applied DVS level [Hz]
  std::size_t dvs_level_ = 0;  ///< applied DVS level
  std::size_t pending_level_ = 0;
  bool transition_active_ = false;
  double transition_end_t_ = 0.0;
  bool clock_gate_requested_ = false;
  bool clock_gate_on_ = false;  ///< inside a gated quantum
  double quantum_end_t_ = 0.0;
  double gate_fraction_ = 0.0;
  double issue_gate_fraction_ = 0.0;
  long long interval_cycles_ = 0;
  double interval_wall_ = 0.0;

  // Measurement accumulators.
  struct Accum {
    double wall = 0.0;
    double violation = 0.0;
    double above_trigger = 0.0;
    double gate_weighted = 0.0;
    double issue_gate_weighted = 0.0;
    double dvs_low = 0.0;
    double clock_gated = 0.0;
    double failsafe = 0.0;
    double fault_window = 0.0;
    double fault_violation = 0.0;
    double energy_j = 0.0;
    double max_true = 0.0;
    std::vector<double> block_temp_weighted;
    std::size_t transitions = 0;
    std::uint64_t start_committed = 0;
    std::uint64_t start_cycles = 0;
    std::uint64_t idle_cycles = 0;  ///< cycles advanced as idle spans

    /// Zero in place, keeping block_temp_weighted's storage (run() may
    /// be called repeatedly and must not allocate after the first call).
    void reset() {
      wall = violation = above_trigger = gate_weighted = 0.0;
      issue_gate_weighted = dvs_low = clock_gated = failsafe = 0.0;
      fault_window = fault_violation = energy_j = max_true = 0.0;
      for (double& v : block_temp_weighted) v = 0.0;
      transitions = 0;
      start_committed = 0;
      start_cycles = 0;
      idle_cycles = 0;
    }
  } acc_;

  std::function<void(const StepTrace&)> trace_cb_;
  std::string benchmark_name_;
  /// Cooperative stop signal for the current run() (null when absent).
  const util::CancelToken* cancel_ = nullptr;
  std::uint64_t probe_auto_instructions_ = 300'000;

  // Preallocated scratch so the per-step hot path never allocates.
  std::vector<double> watts_;       ///< per-block power
  thermal::Vector expanded_;        ///< per-node power
  core::ThermalSample sample_;      ///< reused sensor-event sample
  thermal::Vector init_temps_;      ///< steady-state fixed-point scratch

  // Observability (all dormant unless tracing/metrics are enabled).
  std::uint32_t sim_lane_ = obs::SimLaneScope::kNoLane;
  bool policy_engaged_ = false;   ///< last reported actuation state
  bool in_emergency_ = false;     ///< last reported T > emergency state
};

}  // namespace hydra::sim
