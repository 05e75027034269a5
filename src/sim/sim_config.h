// Configuration of a full co-simulation run (paper Section 3 setup).
#pragma once

#include <cstdint>

#include "arch/core_config.h"
#include "core/budget_arbiter.h"
#include "core/dtm_policy.h"
#include "core/migration_policy.h"
#include "fault/fault_campaign.h"
#include "sensor/sensor.h"
#include "thermal/package.h"
#include "util/units.h"

namespace hydra::sim {

struct SimConfig {
  // --- Operating point / DVS ------------------------------------------
  util::Volts v_nominal{1.3};
  util::Hertz f_nominal{3.0e9};
  util::Volts v_threshold{0.35};  ///< device Vth for the f(V) curve
  double vf_alpha = 1.3;          ///< alpha-power-law exponent
  double v_low_fraction = 0.85;   ///< paper: largest safe low voltage
  std::size_t dvs_steps = 2;      ///< binary DVS by default
  /// Time to change the DVS setting; paper: 10 us.
  util::Seconds dvs_switch_time{10e-6};
  /// true: pipeline stalls during the switch ("DVS-stall");
  /// false: execution continues, new point applies after the switch
  /// ("DVS-ideal").
  bool dvs_stall = true;

  // --- Thermal / DTM -----------------------------------------------------
  core::DtmThresholds thresholds{};
  thermal::Package package{};
  /// Global clock-gating quantum; paper (Pentium 4): 2 us.
  util::Seconds clock_gate_quantum{2e-6};
  /// Power/thermal accounting interval [cycles]; paper: 10,000 (with
  /// time_scale = 1). Scaled down alongside time_scale so the interval
  /// stays well below the sensor sampling period.
  long long thermal_interval_cycles = 5'000;

  // --- Time acceleration --------------------------------------------------
  /// Uniform compression of every thermal/DTM time constant (capacitances,
  /// sensor period, DVS switch time, clock quantum are all divided by
  /// this). 1.0 reproduces the paper's literal timings; the default of 40
  /// preserves all dimensionless dynamics while letting runs of a few
  /// million cycles span several silicon thermal time constants
  /// (DESIGN.md).
  double time_scale = 40.0;

  // --- Sensors -------------------------------------------------------------
  sensor::SensorConfig sensor{};
  /// Scheduled sensor faults (stuck-at, dead, drift, ...). Event times are
  /// paper-time seconds relative to the start of the measured window. The
  /// default empty campaign leaves the sensor path byte-identical to a
  /// build without fault support.
  fault::FaultCampaign fault_campaign{};

  // --- Fast paths ----------------------------------------------------------
  /// Use the fused backward-Euler operator (two contiguous matvecs per
  /// thermal step) instead of LU forward/back substitution. Same scheme,
  /// same dt rounding; agrees with the LU path to <=1e-9 degC over full
  /// runs (enforced by fastpath_test).
  bool fused_thermal = true;

  // --- Many-core die ---------------------------------------------------
  struct MulticoreConfig {
    /// Core tiles on the die (1 = the classic single-core paper setup;
    /// the single-core System path is used and everything below is
    /// ignored). The die outline stays fixed — tiles shrink
    /// (floorplan/multicore.h), and each tile's power is scaled by
    /// 1/cores so die-level power density stays in the paper's regime.
    std::size_t cores = 1;
    /// Worker threads stepping tiles within one run. 0 = the global
    /// pool's width. Results are bit-identical at any value (enforced by
    /// multicore_test): threads only parallelise the embarrassingly
    /// parallel per-tile core stepping between interval barriers.
    std::size_t threads = 0;
    /// Software threads running on the die (each a seeded variant of the
    /// benchmark profile, pinned one per tile in tile order). 0 = one
    /// per core. Fewer threads than cores leaves idle (clock-gated)
    /// tiles — the migration policy's destinations.
    std::size_t workload_threads = 0;
    /// true: each tile's DVS commands actuate its own voltage domain;
    /// false: one global domain — the die runs at the maximum DVS level
    /// any tile requests (the conservative pre-per-core-domain design).
    bool per_core_dvs = true;
    /// Enable the thermal-aware thread-migration policy.
    bool migration = false;
    core::MigrationConfig migration_policy{};
    /// Global die-level power-budget arbiter; arbiter.die_budget <= 0
    /// (the default) disables it.
    core::BudgetArbiterConfig arbiter{};
  };
  MulticoreConfig multicore{};

  // --- Core / run length ----------------------------------------------------
  arch::CoreConfig core{};
  /// Instructions run before measurement begins (after steady-state
  /// thermal initialisation); the policy is active during warm-up.
  std::uint64_t warmup_instructions = 1'600'000;
  /// Instructions measured for slowdown.
  std::uint64_t run_instructions = 3'000'000;
  /// Instructions used to estimate representative activity for the
  /// steady-state thermal initialisation. 0 (default) sizes the probe
  /// automatically to one full phase rotation of the workload (capped at
  /// 2M), so the quasi-static heat-sink temperature reflects the
  /// workload's long-run average power rather than a single phase.
  std::uint64_t activity_probe_instructions = 0;
};

}  // namespace hydra::sim
