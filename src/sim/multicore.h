// Many-core co-simulation: K core tiles on one die, one RC network.
//
// Generalises the single-core System to an N-core chip. All tiles share
// one thermal model (the tiled floorplan from floorplan/multicore.h) and
// one die-level solver; each tile is a sim::Tile (sim/tile.h), the same
// core + 18-sensor bank + DTM policy + actuator state machine System
// steps, so DTM stays local, as in the paper, while three die-level
// mechanisms compose on top: per-core (or barrier-synchronised global)
// DVS domains, a thermal-aware thread-migration policy
// (core/migration_policy.h), and a global power-budget arbiter
// (core/budget_arbiter.h).
//
// Intra-run parallelism contract (DESIGN.md section 15): the run
// advances in wall-synchronous thermal intervals of
// dt = thermal_interval_cycles / f_nominal master seconds. Within an
// interval every tile is stepped independently — a tile's sub-loop
// touches only tile-local state plus *frozen* shared state (the solver
// temperatures, the arbiter commands and the global DVS floor from the
// last barrier) — so tiles may execute on any number of pool workers,
// each under its own tile's trace lane. At the barrier, all cross-tile
// work (power gather, the thermal step, migration, arbitration) runs on
// the calling thread in ascending tile order. Results are therefore
// bit-identical at any `multicore.threads` / HYDRA_THREADS width
// (multicore_test asserts it).
//
// Deviations from the single-core System, all deliberate:
//  * Each tile runs n ~= dt * f_tile cycles per interval, so tiles at
//    different DVS levels advance different cycle counts per barrier —
//    the thermal step sees every tile's true interval-average power.
//  * Measurement and run-length checks quantise to interval boundaries
//    (the single-core System stops within a 4096-cycle chunk).
//  * Gate duty integrates per chunk (System: per thermal interval).
//  * In global-DVS mode the shared level is the max level any tile
//    requested as of the last barrier (one-interval response lag).
//  * Sensor fault campaigns are not supported (cores > 1 + a non-empty
//    campaign throws): a campaign names one die-wide sensor bank.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/budget_arbiter.h"
#include "core/dtm_policy.h"
#include "core/migration_policy.h"
#include "obs/trace.h"
#include "power/voltage_freq.h"
#include "sim/model_cache.h"
#include "sim/sim_config.h"
#include "sim/system.h"
#include "sim/tile.h"
#include "thermal/solver.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "workload/synthetic_trace.h"

namespace hydra::sim {

/// Per-tile lifetime statistics for one measured run.
struct CoreRunStats {
  std::size_t tile = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;
  double max_true_celsius = 0.0;      ///< hottest block on this tile
  double mean_gate_fraction = 0.0;    ///< time-weighted fetch gating
  double dvs_low_fraction = 0.0;      ///< time at a non-nominal level
  double occupied_fraction = 0.0;     ///< time a thread was bound here
  std::size_t dvs_transitions = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migrations_out = 0;
};

/// One applied thread migration.
struct MigrationEvent {
  double time_seconds = 0.0;
  std::size_t from = 0;
  std::size_t to = 0;
  /// Die Tmax at the decision barrier and at the next interval boundary
  /// (the property test bounds after against before).
  double tmax_before_celsius = 0.0;
  double tmax_after_celsius = 0.0;
};

/// Aggregate + per-core outcome. Only `aggregate` participates in run
/// memoization / persistence; the per-core breakdown is for tools and
/// tests driving MulticoreSystem directly.
struct MulticoreResult {
  RunResult aggregate;
  std::vector<CoreRunStats> per_core;
  std::vector<MigrationEvent> migrations;
};

/// Builds one DTM policy instance per tile (may return nullptr for a
/// no-DTM baseline). Called K times during construction; each call must
/// produce an equivalently configured, independent instance.
using PolicyFactory = std::function<std::unique_ptr<core::DtmPolicy>()>;

class MulticoreSystem {
 public:
  /// `policy_name` labels RunResult::policy ("baseline" when empty and
  /// the factory returns null). Throws std::invalid_argument on
  /// inconsistent multicore config (0 cores, more threads than cores, a
  /// fault campaign with cores > 1).
  MulticoreSystem(const workload::WorkloadProfile& profile,
                  const SimConfig& cfg, PolicyFactory factory,
                  std::string policy_name = "");
  ~MulticoreSystem();

  /// Steady-state init + warm-up + measured run (see System::run for the
  /// cancellation contract; cancellation is polled once per interval).
  MulticoreResult run(const util::CancelToken* cancel = nullptr);

  std::size_t cores() const { return tiles_.size(); }
  const power::DvsLadder& ladder() const { return env_.ladder; }

 private:
  void initialize_thermal_state();
  /// Advance whole thermal intervals until `total_committed() >=
  /// target`. The master clock, solver and all cross-tile policies move
  /// here; per-tile stepping fans out through the worker pool.
  void advance_intervals(std::uint64_t target_committed, bool measure);
  /// Advance tile `i` to master time `t_end` under its own trace lane,
  /// then compute its interval-average block power. Runs concurrently
  /// across tiles; touches only tile state and frozen shared state.
  void step_tile(std::size_t i, double t_end, bool measure);
  std::uint64_t total_committed() const;
  void apply_migration(const core::MigrationDecision& d);

  SimConfig cfg_;
  std::shared_ptr<const SharedModel> shared_;
  const thermal::ThermalModel& model_;
  TileEnv env_;  ///< over the single-tile ev7 unit
  thermal::TransientSolver solver_;
  core::MigrationPolicy migration_;
  core::BudgetArbiter arbiter_;

  /// One per software thread; a tile binds one via Core::set_trace.
  std::vector<std::unique_ptr<workload::SyntheticTrace>> threads_;
  std::vector<std::unique_ptr<Tile>> tiles_;

  /// nullptr = serial (threads == 1); global() or a private pool else.
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool_;

  double interval_dt_ = 0.0;  ///< master wall seconds per thermal interval
  double power_scale_ = 1.0;  ///< 1/cores: tiles shrink with the grid

  // Master dynamic state (single-threaded: the barrier phase only).
  double t_ = 0.0;
  std::size_t global_dvs_floor_ = 0;  ///< global-DVS mode, last barrier

  // Die-level measurement accumulators (barrier phase only).
  struct Accum {
    double wall = 0.0;
    double violation = 0.0;
    double above_trigger = 0.0;
    double energy_j = 0.0;
    double max_true = 0.0;
    double spread_weighted = 0.0;
    double throttled = 0.0;  ///< wall time with an arbiter floor active
    std::vector<double> block_temp_weighted;  ///< per die block
    std::uint64_t start_committed = 0;
    std::uint64_t start_cycles = 0;
    void reset() {
      wall = violation = above_trigger = energy_j = max_true = 0.0;
      spread_weighted = throttled = 0.0;
      for (double& v : block_temp_weighted) v = 0.0;
      start_committed = 0;
      start_cycles = 0;
    }
  } acc_;

  std::vector<MigrationEvent> migration_events_;
  std::size_t migrations_pending_after_ = 0;  ///< first event missing after-T

  std::string benchmark_name_;
  std::string policy_name_;
  std::uint32_t die_lane_ = obs::SimLaneScope::kNoLane;  ///< die trace lane
  const util::CancelToken* cancel_ = nullptr;
  std::uint64_t probe_instructions_ = 0;

  // Preallocated die-level scratch (the interval loop never allocates).
  PowerScratch scratch_;
  thermal::Vector init_temps_;
  std::vector<core::TileThermalState> tile_states_;
  std::vector<util::Watts> tile_power_;
  std::vector<bool> tile_occupied_;
};

}  // namespace hydra::sim
