// Co-simulation system: core <-> power <-> thermal <-> sensors <-> DTM.
//
// The loop follows the paper's methodology: the core runs in 10k-cycle
// accounting intervals whose average per-block power drives the RC
// thermal model; sensors are sampled at 10 kHz and feed the DTM policy.
// The core, its sensors, its policy and the actuator path (fetch gating
// at once, global clock gating in fixed quanta, DVS through a transition
// state machine with 10 us switching time, stalling the pipeline in the
// "stall" variant) are one sim::Tile (sim/tile.h), the same one the
// many-core MulticoreSystem steps N of. System adds the solver: it steps
// the thermal model after every thermal_interval_cycles core cycles and
// stops a run within a chunk. Temperatures are initialised to the
// workload's steady state and a warm-up period runs before statistics
// are gathered.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/dtm_policy.h"
#include "floorplan/floorplan.h"
#include "power/voltage_freq.h"
#include "sim/model_cache.h"
#include "sim/sim_config.h"
#include "sim/tile.h"
#include "thermal/model_builder.h"
#include "thermal/solver.h"
#include "util/cancel.h"
#include "util/fields.h"
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

/// Visit order is the persistent cache's payload layout: adding, moving
/// or retyping a field changes the format (kFormatVersion).
template <util::FieldsOf<RunResult> Self, class F>
void visit_fields(Self& r, F&& f) {
  f("benchmark", r.benchmark);
  f("policy", r.policy);
  f("wall_seconds", r.wall_seconds);
  f("instructions", r.instructions);
  f("cycles", r.cycles);
  f("ipc", r.ipc);
  f("max_true_celsius", r.max_true_celsius);
  f("violation_fraction", r.violation_fraction);
  f("above_trigger_fraction", r.above_trigger_fraction);
  f("dvs_transitions", r.dvs_transitions);
  f("mean_gate_fraction", r.mean_gate_fraction);
  f("mean_issue_gate_fraction", r.mean_issue_gate_fraction);
  f("dvs_low_fraction", r.dvs_low_fraction);
  f("clock_gated_fraction", r.clock_gated_fraction);
  f("mean_power_watts", r.mean_power_watts);
  f("hottest_block", r.hottest_block);
  f("hottest_mean_celsius", r.hottest_mean_celsius);
  f("idle_skip_fraction", r.idle_skip_fraction);
  f("solver_guard_trips", r.solver_guard_trips);
  f("faulted_samples", r.faulted_samples);
  f("sensor_rejections", r.sensor_rejections);
  f("quarantine_entries", r.quarantine_entries);
  f("failsafe_fraction", r.failsafe_fraction);
  f("fault_window_fraction", r.fault_window_fraction);
  f("fault_violation_fraction", r.fault_violation_fraction);
  f("cores", r.cores);
  f("thread_migrations", r.thread_migrations);
  f("core_temp_spread_celsius", r.core_temp_spread_celsius);
  f("budget_throttled_fraction", r.budget_throttled_fraction);
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
  void set_per_cycle_idle_for_test(bool on) { tile_->per_cycle_idle = on; }

  /// Install an observer called once per thermal interval during the
  /// measured run.
  void set_trace_callback(std::function<void(const StepTrace&)> cb) {
    trace_cb_ = std::move(cb);
  }

  const power::DvsLadder& ladder() const { return env_.ladder; }
  const floorplan::Floorplan& floorplan() const { return fp_; }

 private:
  void initialize_thermal_state();
  /// Advance until `target_committed` instructions have committed. With
  /// `run_out_interval`, additionally continue to the next thermal
  /// interval boundary (used after warm-up: stepping the solver with a
  /// partial-interval dt would factorise a fresh LU nearly every run).
  void advance_until(std::uint64_t target_committed, bool measure,
                     bool run_out_interval = false);
  void thermal_step(bool measure);

  // Configuration-derived state. Floorplan, thermal model and LU
  // factorisations are shared read-only across all Systems with the same
  // (package, time_scale) via the process-wide ModelCache.
  SimConfig cfg_;
  std::shared_ptr<const SharedModel> shared_;
  const floorplan::Floorplan& fp_;
  const thermal::ThermalModel& model_;
  TileEnv env_;
  workload::SyntheticTrace trace_;
  std::unique_ptr<Tile> tile_;
  thermal::TransientSolver solver_;

  long long interval_cycles_ = 0;
  double interval_wall_ = 0.0;

  // Per-interval measurement accumulators; the tile keeps the per-chunk
  // ones.
  struct Accum {
    double violation = 0.0;
    double above_trigger = 0.0;
    /// Gate duty integrated per thermal interval, where the tile (and so
    /// the die) integrates per chunk: the sums round differently, and
    /// System's results keep their rule (DESIGN.md section 15).
    double gate_weighted = 0.0;
    double issue_gate_weighted = 0.0;
    double fault_window = 0.0;
    double fault_violation = 0.0;
    double energy_j = 0.0;
    std::vector<double> block_temp_weighted;

    /// Zero in place, keeping block_temp_weighted's storage (run() may
    /// be called repeatedly and must not allocate after the first call).
    void reset() {
      violation = above_trigger = gate_weighted = issue_gate_weighted = 0.0;
      fault_window = fault_violation = energy_j = 0.0;
      for (double& v : block_temp_weighted) v = 0.0;
    }
  } acc_;

  std::function<void(const StepTrace&)> trace_cb_;
  std::string benchmark_name_;
  /// Cooperative stop signal for the current run() (null when absent).
  const util::CancelToken* cancel_ = nullptr;
  std::uint64_t probe_instructions_ = 0;

  // Preallocated scratch so the per-step hot path never allocates.
  PowerScratch scratch_;
  thermal::Vector init_temps_;  ///< steady-state fixed point
};

}  // namespace hydra::sim
