// One core tile's DTM state machine, shared by both simulation engines.
//
// A Tile is one out-of-order core with its 18-sensor bank, its DTM
// policy (plus the optional sensor-fault injector) and the actuator path
// every policy drives, as in the paper: a sensor sample every sensor
// period, fetch- and issue-gate duties that apply at once, global clock
// gating in fixed quanta, and DVS through a transition that lasts the
// switch time (stalling the pipeline in the "stall" variant). The engine
// decides when a tile runs and what heats it: System steps one Tile and
// the solver; MulticoreSystem steps N Tiles between thermal barriers
// (DESIGN.md section 15). A tile touches only its own state and what its
// engine passes in, so the tiles of a die may step on any pool worker.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/core.h"
#include "core/budget_arbiter.h"
#include "core/dtm_policy.h"
#include "core/guarded_policy.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "power/voltage_freq.h"
#include "sensor/sensor.h"
#include "sim/model_cache.h"
#include "sim/sim_config.h"
#include "workload/synthetic_trace.h"

namespace hydra::sim {

/// Size of the next chunk a tile advances: up to the next scheduled
/// event, never past the thermal-interval boundary, capped at 4096
/// cycles so event-time comparisons stay responsive. Exposed as a free
/// function so the fastpath property test can fuzz the boundary
/// guarantees directly. The order of operations (clamp, then the two
/// mins) is load-bearing: the measured wall time accumulates as n / freq
/// per chunk, so chunk geometry must not change across code paths or
/// results drift.
inline long long chunk_cycles(double next_event_t, double t, double freq_hz,
                              long long interval_cycles_remaining) {
  long long n =
      static_cast<long long>(std::ceil((next_event_t - t) * freq_hz));
  if (n < 1) n = 1;
  n = std::min(n, interval_cycles_remaining);
  return std::min<long long>(n, 4096);
}

/// Instructions the steady-state activity probe measures: the configured
/// activity_probe_instructions, or when that is 0 one full phase rotation
/// of the workload (300k without phases), capped at 2M.
std::uint64_t probe_instructions(const SimConfig& cfg,
                                 const workload::WorkloadProfile& profile);

/// Build the DVS ladder implied by a SimConfig.
power::DvsLadder make_ladder(const SimConfig& cfg);

/// Read-only state every tile of one run shares.
struct TileEnv {
  /// `unit` is one core's floorplan (the power model keeps only its
  /// block areas). `cfg` must outlive the TileEnv.
  TileEnv(const SimConfig& cfg, const floorplan::Floorplan& unit);

  const SimConfig& cfg;
  power::DvsLadder ladder;
  power::PowerModel power;  ///< one core; die tiles scale it by 1/cores
  // Scaled event periods [s].
  double sensor_period_s;
  double switch_time_s;
  double gate_quantum_s;
};

/// Die-level actuation floors from the last barrier, composed with a
/// tile's own command: the more aggressive actuation wins. All zero on a
/// single core.
struct DieFloors {
  core::ArbiterCommand arbiter;  ///< power-budget arbiter floors
  std::size_t global_dvs = 0;    ///< global-DVS mode: max level requested
};

/// What one Tile::advance moved.
struct Chunk {
  long long cycles;
  double dt;  ///< wall seconds at the clock the chunk ran at
};

/// One core and its actuators. Plain data plus the state machine's
/// steps: engines read the accumulators and set `thread`, the migration
/// stall and the flush energy directly.
struct Tile {
  static constexpr std::size_t kNoThread = static_cast<std::size_t>(-1);

  /// Tile `index` of its engine, running `trace` as thread `index`, or
  /// unoccupied when `trace` is null: its core then holds no pipeline
  /// until a migration binds a thread (arch::Core::set_trace). The core
  /// is clocked at ladder point 0 with its memory latency sized by
  /// cfg.f_nominal. Sensor noise is seeded cfg.sensor.seed + index; a
  /// non-empty fault campaign gets an injector. `policy` may be null (no
  /// DTM).
  Tile(const TileEnv& env, std::size_t index, arch::TraceSource* trace,
       std::unique_ptr<core::DtmPolicy> policy);

  /// Measure `instructions` of the bound thread's activity, after
  /// discarding a warm-up third (cold misses bias the estimate low),
  /// into probe_frame. An unoccupied tile's frame is zero.
  void probe(std::uint64_t instructions);

  /// Restart the event clock at t = 0, first sensor sample one period
  /// in. The DVS and clock-gate state carry over.
  void start();

  /// Zero the measurement accumulators, mark the measured window's start
  /// and anchor the fault campaign's t = 0 at the current time.
  void begin_measure();

  /// Earliest pending scheduled event (sensor sample, DVS-transition
  /// end, clock-gate quantum boundary). Invariant between events, so
  /// engines recompute it only after fire_events reports one.
  double next_event() const;

  /// Advance up to `n` cycles at the applied clock: a pending migration
  /// stall (clocked idle), an idle span (clock-gated quantum, stalled
  /// DVS transition or no bound thread; O(1) unless per_cycle_idle), or
  /// busy cycles. Adds the chunk to the per-chunk accumulators.
  Chunk advance(long long n, bool measure);

  /// Fire the events due at t: DVS-transition end, clock-gate quantum
  /// boundary, and the sensor sample against `truth` (its first
  /// kNumBlocks entries are this tile's blocks). The sample's command is
  /// composed with `floors`. Returns true when any event fired.
  bool fire_events(const std::vector<double>& truth, const DieFloors& floors,
                   bool measure);

  /// Take the interval's activity and turn it into per-block power at
  /// the applied operating point, leakage at `truth`, times `scale`.
  void interval_power(const std::vector<double>& truth, double scale);

  /// After a thermal step: fold the tile's hottest block into the run's
  /// maximum (measured), trace it at `time_s` and report emergency edges.
  void note_tmax(double tmax, double time_s, bool measure);

  const TileEnv& env;
  std::size_t index;
  arch::Core core;
  sensor::SensorBank sensors;
  std::unique_ptr<core::DtmPolicy> policy;
  std::unique_ptr<fault::FaultInjector> injector;
  /// Non-owning view of policy when it is a GuardedPolicy (for stats).
  core::GuardedPolicy* guard = nullptr;
  std::size_t thread;  ///< bound software thread (kNoThread = idle)
  bool per_cycle_idle = false;  ///< reference idle loop (test seam)
  std::uint32_t lane = obs::SimLaneScope::kNoLane;  ///< sim trace lane

  // DVS / clock-gate state machine.
  double t = 0.0;  ///< tile clock [s]
  double next_sensor_t = 0.0;
  double freq_hz = 0.0;  ///< clock at the applied DVS level [Hz]
  std::size_t dvs_level = 0;  ///< applied DVS level
  std::size_t pending_level = 0;
  bool transition_active = false;
  double transition_end_t = 0.0;
  bool clock_gate_requested = false;
  bool clock_gate_on = false;  ///< inside a gated quantum
  double quantum_end_t = 0.0;
  double gate_fraction = 0.0;
  double issue_gate_fraction = 0.0;
  std::size_t requested_dvs = 0;  ///< last level before the global floor
  std::uint64_t stall_cycles = 0;  ///< pending migration context switch
  double pending_flush_j = 0.0;    ///< migration flush energy to charge
  bool policy_engaged = false;  ///< last reported actuation state
  bool in_emergency = false;    ///< last reported T > emergency state

  // Scratch reused every interval (stepping never allocates).
  std::vector<double> watts;        ///< interval-average block power [W]
  std::vector<double> temps_slice;  ///< frozen tile temperatures (die)
  core::ThermalSample sample;
  arch::ActivityFrame probe_frame;  ///< steady-state init activity

  /// Measurement accumulators: advance and fire_events add per chunk,
  /// note_tmax per thermal step, the die's barrier the migrations.
  struct Accum {
    double gate_weighted = 0.0;
    double issue_gate_weighted = 0.0;
    double dvs_low = 0.0;
    double clock_gated = 0.0;
    double occupied_wall = 0.0;  ///< the measured wall on a single core
    double failsafe = 0.0;
    double max_true = 0.0;
    std::uint64_t idle_cycles = 0;  ///< cycles advanced as idle spans
    std::size_t transitions = 0;
    std::uint64_t migrations_in = 0;
    std::uint64_t migrations_out = 0;
    std::uint64_t start_committed = 0;
    std::uint64_t start_cycles = 0;
  } acc;

 private:
  void sensor_event(const std::vector<double>& truth, const DieFloors& floors,
                    bool measure);
  void apply_dvs_level(std::size_t level);
};

/// Power buffers an engine reuses across intervals and runs, so neither
/// stepping nor a repeated run allocates.
struct PowerScratch {
  std::vector<double> die_watts;  ///< tiles x kNumBlocks block power
  thermal::Vector expanded;       ///< per-node power
  thermal::Vector work;           ///< sparse steady-solve scratch
};

/// The power <-> temperature fixed point a run starts from (leakage
/// depends on temperature): each tile's probe activity at the nominal
/// operating point, times `power_scale`, heats its blocks of the die.
/// Ten rounds against the steady-state factor of G: the sparse Cholesky
/// past the use_sparse_step crossover, the dense LU below it. Leaves the
/// node temperatures in `temps`.
void steady_state_temperatures(const SharedModel& shared,
                               std::span<const std::unique_ptr<Tile>> tiles,
                               double power_scale, PowerScratch& scratch,
                               thermal::Vector& temps);

}  // namespace hydra::sim
