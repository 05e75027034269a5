#include "sim/multicore.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "floorplan/ev7.h"
#include "floorplan/multicore.h"
#include "obs/obs.h"

namespace hydra::sim {
namespace {

constexpr double kEps = 1e-12;
constexpr double kSimUs = 1e6;
constexpr std::size_t kNoThread = static_cast<std::size_t>(-1);

inline bool sim_trace_on(const obs::Tracer& tracer, std::uint32_t lane) {
  return tracer.enabled() && lane != obs::SimLaneScope::kNoLane;
}

}  // namespace

/// All per-tile state. Everything here is tile-local: during the
/// parallel phase a tile is touched by exactly one worker, and the
/// barrier phase runs single-threaded, so no field needs atomics.
struct MulticoreSystem::Tile {
  Tile(const arch::CoreConfig& core_cfg, arch::TraceSource& trace,
       const sensor::SensorConfig& sensor_cfg,
       std::unique_ptr<core::DtmPolicy> pol)
      : core(core_cfg, trace),
        sensors(floorplan::kNumBlocks, sensor_cfg),
        policy(std::move(pol)),
        guard(dynamic_cast<core::GuardedPolicy*>(policy.get())) {
    watts.resize(floorplan::kNumBlocks);
    temps_slice.resize(floorplan::kNumBlocks);
    sample.sensed_celsius.reserve(floorplan::kNumBlocks);
  }

  arch::Core core;
  sensor::SensorBank sensors;
  std::unique_ptr<core::DtmPolicy> policy;
  core::GuardedPolicy* guard = nullptr;

  std::size_t index = 0;
  std::size_t thread = kNoThread;  ///< bound software thread (kNoThread=idle)

  // Tile-local event machinery (mirrors the single-core System's).
  double t = 0.0;
  double next_sensor_t = 0.0;
  double freq_hz = 0.0;
  std::size_t dvs_level = 0;
  std::size_t pending_level = 0;
  bool transition_active = false;
  double transition_end_t = 0.0;
  bool clock_gate_requested = false;
  bool clock_gate_on = false;
  double quantum_end_t = 0.0;
  double gate_fraction = 0.0;
  double issue_gate_fraction = 0.0;
  std::size_t requested_dvs = 0;   ///< last composed level (global-DVS mode)
  std::uint64_t stall_cycles = 0;  ///< pending migration context-switch stall
  double pending_flush_j = 0.0;    ///< migration flush energy, next interval

  // Scratch reused every interval (the tile phase never allocates).
  std::vector<double> watts;        ///< interval-average block power [W]
  std::vector<double> temps_slice;  ///< frozen tile temperatures [deg C]
  core::ThermalSample sample;
  arch::ActivityFrame probe_frame;  ///< steady-state init activity

  // Measurement accumulators. The doubles accumulate in the tile phase;
  // max_true and the migration counters are barrier-phase only.
  double gate_weighted = 0.0;
  double issue_gate_weighted = 0.0;
  double dvs_low = 0.0;
  double clock_gated = 0.0;
  double occupied_wall = 0.0;
  double failsafe_wall = 0.0;
  double max_true = 0.0;
  std::uint64_t idle_cycles = 0;
  std::size_t transitions = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t start_committed = 0;
  std::uint64_t start_cycles = 0;
  std::uint32_t lane = obs::SimLaneScope::kNoLane;

  void reset_measure() {
    gate_weighted = issue_gate_weighted = dvs_low = clock_gated = 0.0;
    occupied_wall = failsafe_wall = max_true = 0.0;
    idle_cycles = 0;
    transitions = 0;
    migrations_in = migrations_out = 0;
    start_committed = core.committed();
    start_cycles = core.cycles();
  }
};

MulticoreSystem::MulticoreSystem(const workload::WorkloadProfile& profile,
                                 const SimConfig& cfg, PolicyFactory factory,
                                 std::string policy_name)
    : cfg_(cfg),
      shared_(ModelCache::global().get(cfg)),
      model_(shared_->model),
      unit_fp_(floorplan::ev7_floorplan()),
      vf_curve_(cfg.v_nominal, cfg.f_nominal, cfg.v_threshold, cfg.vf_alpha),
      ladder_(vf_curve_, cfg.dvs_steps, cfg.v_low_fraction),
      power_(unit_fp_, power::EnergyModel()),
      solver_(model_.network, cfg.package.ambient,
              cfg.fused_thermal ? thermal::Scheme::kFusedBE
                                : thermal::Scheme::kBackwardEuler,
              shared_->lu_cache),
      migration_([&cfg] {
        // Migration timings are paper-time, compressed like every other
        // period; the engagement threshold is the DTM trigger.
        core::MigrationConfig m = cfg.multicore.migration_policy;
        m.interval = util::Seconds(m.interval.value() / cfg.time_scale);
        m.trigger = cfg.thresholds.trigger;
        return m;
      }()),
      arbiter_(cfg.multicore.arbiter, cfg.multicore.cores, ladder_.size()),
      benchmark_name_(profile.name),
      policy_name_(std::move(policy_name)) {
  const std::size_t cores = cfg_.multicore.cores;
  if (cores == 0) {
    throw std::invalid_argument("multicore.cores must be >= 1");
  }
  std::size_t n_threads = cfg_.multicore.workload_threads;
  if (n_threads == 0) n_threads = cores;
  if (n_threads > cores) {
    throw std::invalid_argument("more workload threads than cores");
  }
  if (!cfg_.fault_campaign.empty() && cores > 1) {
    throw std::invalid_argument(
        "sensor fault campaigns are single-core only");
  }

  // One seeded trace per software thread: same statistical profile,
  // decorrelated streams (different phase alignment per tile is what
  // makes migration/arbitration interesting).
  threads_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workload::WorkloadProfile p = profile;
    p.seed = profile.seed + i;
    threads_.push_back(std::make_unique<workload::SyntheticTrace>(p));
  }

  tiles_.reserve(cores);
  for (std::size_t t = 0; t < cores; ++t) {
    sensor::SensorConfig scfg = cfg_.sensor;
    scfg.seed = cfg_.sensor.seed + t;  // independent per-tile noise
    // Idle tiles get a trace bound too (Core requires one) but never
    // fetch from it: unoccupied tiles only ever advance via idle cycles.
    workload::SyntheticTrace& trace =
        t < n_threads ? *threads_[t] : *threads_[0];
    auto tile = std::make_unique<Tile>(
        cfg_.core, trace, scfg, factory ? factory() : nullptr);
    tile->index = t;
    if (t < n_threads) tile->thread = t;
    tile->freq_hz = ladder_.point(0).frequency.value();
    tiles_.push_back(std::move(tile));
  }
  if (policy_name_.empty()) {
    policy_name_ = tiles_[0]->policy
                       ? std::string(tiles_[0]->policy->name())
                       : "baseline";
  }

  // Worker pool for the per-tile phase. 1 = strictly serial; 0 = the
  // process pool (safe from inside an engine worker: for_each_index's
  // caller participates, so progress never depends on free workers).
  const std::size_t width = cfg_.multicore.threads;
  if (width == 0) {
    pool_ = &util::ThreadPool::global();
  } else if (width > 1) {
    owned_pool_ = std::make_unique<util::ThreadPool>(width);
    pool_ = owned_pool_.get();
  }

  sensor_period_s_ =
      1.0 / (cfg_.sensor.sample_rate.value() * cfg_.time_scale);
  switch_time_s_ = cfg_.dvs_switch_time.value() / cfg_.time_scale;
  gate_quantum_ = cfg_.clock_gate_quantum.value() / cfg_.time_scale;
  interval_dt_ = static_cast<double>(cfg_.thermal_interval_cycles) /
                 cfg_.f_nominal.value();
  power_scale_ = 1.0 / static_cast<double>(cores);

  die_watts_.resize(cores * floorplan::kNumBlocks);
  expanded_.resize(model_.network.size());
  use_sparse_ = thermal::use_sparse_step(model_.network.size());
  acc_.block_temp_weighted.assign(cores * floorplan::kNumBlocks, 0.0);
  tile_states_.resize(cores);
  tile_power_.assign(cores, util::Watts{0.0});
  tile_occupied_.assign(cores, false);

  probe_auto_instructions_ = 0;
  for (const workload::PhaseSpec& ph : profile.phases) {
    probe_auto_instructions_ += ph.length_instructions;
  }
  if (probe_auto_instructions_ == 0) probe_auto_instructions_ = 300'000;
}

MulticoreSystem::~MulticoreSystem() = default;

std::uint64_t MulticoreSystem::total_committed() const {
  std::uint64_t total = 0;
  for (const auto& tile : tiles_) total += tile->core.committed();
  return total;
}

void MulticoreSystem::initialize_thermal_state() {
  // Probe every occupied tile's representative activity (in parallel —
  // probing is tile-local), then solve the die-level power <->
  // temperature fixed point exactly as the single-core System does.
  std::uint64_t probe = cfg_.activity_probe_instructions;
  if (probe == 0) {
    probe = std::min<std::uint64_t>(probe_auto_instructions_, 2'000'000);
  }
  const auto probe_tile = [this, probe](std::size_t i) {
    Tile& tile = *tiles_[i];
    if (tile.thread == kNoThread) {
      tile.probe_frame = arch::ActivityFrame{};
      return;
    }
    const std::uint64_t start = tile.core.committed();
    while (tile.core.committed() < start + probe / 3) tile.core.cycle();
    tile.core.take_interval_activity();
    while (tile.core.committed() < start + probe / 3 + probe) {
      tile.core.cycle();
    }
    tile.probe_frame = tile.core.take_interval_activity();
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < tiles_.size(); ++i) probe_tile(i);
  } else {
    pool_->for_each_index(tiles_.size(), probe_tile);
  }

  const util::Celsius ambient = cfg_.package.ambient;
  init_temps_.assign(model_.network.size(), ambient.value() + 30.0);
  const auto& nominal = ladder_.point(0);
  const thermal::LuFactorization* g_lu = nullptr;
  const thermal::SparseCholesky* g_chol = nullptr;
  if (use_sparse_) {
    g_chol = &shared_->lu_cache->steady_sparse();
  } else {
    g_lu = &shared_->lu_cache->steady();
  }
  for (int iter = 0; iter < 10; ++iter) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      Tile& tile = *tiles_[t];
      const std::size_t base = t * floorplan::kNumBlocks;
      for (std::size_t b = 0; b < floorplan::kNumBlocks; ++b) {
        tile.temps_slice[b] = init_temps_[base + b];
      }
      power_.block_power_into(tile.probe_frame, nominal.voltage,
                              nominal.frequency, tile.temps_slice,
                              tile.watts);
      for (std::size_t b = 0; b < floorplan::kNumBlocks; ++b) {
        die_watts_[base + b] = tile.watts[b] * power_scale_;
      }
    }
    model_.expand_power_into(die_watts_, expanded_);
    if (use_sparse_) {
      thermal::steady_state_into(*g_chol, expanded_, ambient, init_temps_,
                                 steady_work_);
    } else {
      thermal::steady_state_into(*g_lu, expanded_, ambient, init_temps_);
    }
  }
  solver_.set_temperatures(init_temps_);

  t_ = 0.0;
  global_dvs_floor_ = 0;
  for (auto& tile : tiles_) {
    tile->t = 0.0;
    tile->next_sensor_t = sensor_period_s_;
  }
}

void MulticoreSystem::apply_tile_dvs(Tile& tile, std::size_t level) {
  tile.dvs_level = level;
  tile.freq_hz = ladder_.point(level).frequency.value();
  tile.core.set_frequency(tile.freq_hz);
}

double MulticoreSystem::tile_next_event(const Tile& tile) const {
  double next_event = tile.next_sensor_t;
  if (tile.transition_active) {
    next_event = std::min(next_event, tile.transition_end_t);
  }
  if (tile.clock_gate_on || tile.clock_gate_requested) {
    next_event = std::min(next_event, tile.quantum_end_t);
  }
  return next_event;
}

void MulticoreSystem::tile_sensor_event(Tile& tile, bool measure) {
  core::DtmCommand cmd{};
  if (tile.policy) {
    tile.sensors.sample_into(tile.temps_slice, tile.sample.sensed_celsius);
    tile.sample.max_sensed = util::Celsius(
        *std::max_element(tile.sample.sensed_celsius.begin(),
                          tile.sample.sensed_celsius.end()));
    tile.sample.time = util::Seconds(tile.t);
    cmd = tile.policy->update(tile.sample);
  }

  // Compose the local command with the die-level floors from the last
  // barrier: the more aggressive actuation wins. In global-DVS mode the
  // die additionally never runs below the maximum level any tile
  // requested as of that barrier.
  double gate = cmd.fetch_gate_fraction;
  std::size_t level = cmd.dvs_level;
  if (arbiter_.enabled()) {
    const core::ArbiterCommand& arb = arbiter_.commands()[tile.index];
    gate = std::max(gate, arb.fetch_gate_floor);
    level = std::max(level, arb.dvs_floor);
  }
  tile.requested_dvs = level;
  if (!cfg_.multicore.per_core_dvs) {
    level = std::max(level, global_dvs_floor_);
  }

  tile.gate_fraction = gate;
  tile.core.set_fetch_gate_fraction(gate);
  tile.issue_gate_fraction = cmd.issue_gate_fraction;
  tile.core.set_issue_gate_fraction(cmd.issue_gate_fraction);

  tile.clock_gate_requested = cmd.clock_gate;
  if (tile.clock_gate_requested && !tile.clock_gate_on) {
    tile.clock_gate_on = true;
    tile.quantum_end_t = tile.t + gate_quantum_;
  } else if (!tile.clock_gate_requested) {
    tile.clock_gate_on = false;
  }

  if (!tile.transition_active && level != tile.dvs_level) {
    if (level >= ladder_.size()) {
      throw std::out_of_range("policy requested DVS level beyond ladder");
    }
    tile.pending_level = level;
    tile.transition_active = true;
    tile.transition_end_t = tile.t + switch_time_s_;
    if (measure) ++tile.transitions;
  }
  tile.next_sensor_t += sensor_period_s_;
}

void MulticoreSystem::step_tile(std::size_t t, double t_end, bool measure) {
  Tile& tile = *tiles_[t];
  // Freeze this tile's temperatures for the interval: the solver only
  // advances at barriers, so this is the same fidelity as the
  // single-core System (which also samples interval-boundary state).
  const thermal::Vector& temps = solver_.temperatures();
  const std::size_t base = t * floorplan::kNumBlocks;
  for (std::size_t b = 0; b < floorplan::kNumBlocks; ++b) {
    tile.temps_slice[b] = temps[base + b];
  }

  while (tile.t < t_end - kEps) {
    const double bound = std::min(tile_next_event(tile), t_end);
    long long n =
        static_cast<long long>(std::ceil((bound - tile.t) * tile.freq_hz));
    if (n < 1) n = 1;
    n = std::min<long long>(n, 4096);

    const bool occupied = tile.thread != kNoThread;
    const bool stalled = tile.transition_active && cfg_.dvs_stall;
    if (tile.stall_cycles > 0) {
      // Migration context switch: both endpoints burn clocked-idle
      // cycles (the pipeline drains / refills; the clock tree runs).
      const long long m = std::min<long long>(
          n, static_cast<long long>(tile.stall_cycles));
      tile.core.idle_cycles(static_cast<std::uint64_t>(m), true);
      tile.stall_cycles -= static_cast<std::uint64_t>(m);
      n = m;
      if (measure) tile.idle_cycles += static_cast<std::uint64_t>(m);
    } else if (tile.clock_gate_on || stalled || !occupied) {
      // An unoccupied tile is clock-gated silicon: no thread, no clock
      // tree — only leakage (which the power model charges from its
      // temperatures regardless of activity).
      const bool clocked = !tile.clock_gate_on && occupied;
      tile.core.idle_cycles(static_cast<std::uint64_t>(n), clocked);
      if (measure) tile.idle_cycles += static_cast<std::uint64_t>(n);
    } else {
      for (long long i = 0; i < n; ++i) tile.core.cycle();
    }

    const double dt = static_cast<double>(n) / tile.freq_hz;
    tile.t += dt;
    if (measure) {
      tile.gate_weighted += tile.gate_fraction * dt;
      tile.issue_gate_weighted += tile.issue_gate_fraction * dt;
      if (tile.dvs_level != 0) tile.dvs_low += dt;
      if (tile.clock_gate_on) tile.clock_gated += dt;
      if (occupied) tile.occupied_wall += dt;
      if (tile.guard && tile.guard->failsafe_engaged()) {
        tile.failsafe_wall += dt;
      }
    }

    if (tile.transition_active && tile.t >= tile.transition_end_t - kEps) {
      tile.transition_active = false;
      apply_tile_dvs(tile, tile.pending_level);
    }
    if ((tile.clock_gate_on || tile.clock_gate_requested) &&
        tile.t >= tile.quantum_end_t - kEps) {
      tile.clock_gate_on = !tile.clock_gate_on && tile.clock_gate_requested;
      tile.quantum_end_t = tile.t + gate_quantum_;
    }
    if (tile.t >= tile.next_sensor_t - kEps) {
      tile_sensor_event(tile, measure);
    }
  }

  // Interval-average power at the tile's current operating point; tile
  // watts scale by 1/cores (the tile is a 1/cores shrink of the unit
  // core). Any migration flush energy is spread across the tile's
  // blocks over this interval.
  const arch::ActivityFrame frame = tile.core.take_interval_activity();
  const auto& op = ladder_.point(tile.dvs_level);
  power_.block_power_into(frame, op.voltage, op.frequency, tile.temps_slice,
                          tile.watts);
  for (double& w : tile.watts) w *= power_scale_;
  if (tile.pending_flush_j > 0.0) {
    const double w_flush =
        tile.pending_flush_j /
        (interval_dt_ * static_cast<double>(floorplan::kNumBlocks));
    for (double& w : tile.watts) w += w_flush;
    tile.pending_flush_j = 0.0;
  }
}

void MulticoreSystem::apply_migration(const core::MigrationDecision& d) {
  Tile& src = *tiles_[d.from];
  Tile& dst = *tiles_[d.to];
  // The source squashes its in-flight work; the destination rebinds the
  // thread's instruction stream. Both pay the context-switch stall; the
  // source additionally pays the state-flush energy. The destination's
  // cold caches/predictor are the natural remainder of the cost.
  src.core.flush_pipeline();
  dst.core.set_trace(*threads_[src.thread]);
  dst.thread = src.thread;
  src.thread = kNoThread;
  const std::uint64_t cost = migration_.config().cost_cycles;
  src.stall_cycles += cost;
  dst.stall_cycles += cost;
  src.pending_flush_j += migration_.config().flush_energy.value();
}

void MulticoreSystem::advance_intervals(std::uint64_t target_committed,
                                        bool measure) {
  const std::size_t cores = tiles_.size();
  obs::Tracer& tracer = obs::tracer();
  while (total_committed() < target_committed) {
    if (cancel_ != nullptr && cancel_->stop_requested()) {
      cancel_->throw_if_stopped(benchmark_name_);
    }
    const double t_end = t_ + interval_dt_;
    // Parallel phase: every tile advances to the barrier independently.
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < cores; ++i) step_tile(i, t_end, measure);
    } else {
      pool_->for_each_index(
          cores, [this, t_end, measure](std::size_t i) {
            step_tile(i, t_end, measure);
          });
    }

    // Barrier phase (single-threaded, ascending tile order throughout —
    // every floating-point reduction below is order-fixed).
    for (std::size_t t = 0; t < cores; ++t) {
      const Tile& tile = *tiles_[t];
      const std::size_t base = t * floorplan::kNumBlocks;
      for (std::size_t b = 0; b < floorplan::kNumBlocks; ++b) {
        die_watts_[base + b] = tile.watts[b];
      }
    }
    model_.expand_power_into(die_watts_, expanded_);
    solver_.step(expanded_, util::Seconds(interval_dt_));
    t_ = t_end;

    const thermal::Vector& temps = solver_.temperatures();
    double die_max = temps[0];
    double tile_min_max = 0.0;
    for (std::size_t t = 0; t < cores; ++t) {
      Tile& tile = *tiles_[t];
      const std::size_t base = t * floorplan::kNumBlocks;
      double tmax = temps[base];
      for (std::size_t b = 1; b < floorplan::kNumBlocks; ++b) {
        tmax = std::max(tmax, temps[base + b]);
      }
      tile_states_[t].tmax = util::Celsius(tmax);
      tile_states_[t].occupied = tile.thread != kNoThread;
      tile_occupied_[t] = tile_states_[t].occupied;
      die_max = std::max(die_max, tmax);
      tile_min_max = t == 0 ? tmax : std::min(tile_min_max, tmax);
      if (measure) tile.max_true = std::max(tile.max_true, tmax);
      if (sim_trace_on(tracer, tile.lane)) {
        tracer.counter(tile.lane, obs::TimeDomain::kSim, "Tmax_celsius",
                       t_ * kSimUs, tmax);
      }
    }
    // Now that the die temperature moved, fill in the after-temperature
    // of migrations applied at earlier barriers.
    for (; migrations_pending_after_ < migration_events_.size();
         ++migrations_pending_after_) {
      migration_events_[migrations_pending_after_].tmax_after_celsius =
          die_max;
    }

    double total_watts = 0.0;
    for (double w : die_watts_) total_watts += w;

    if (measure) {
      const double dt = interval_dt_;
      acc_.wall += dt;
      if (die_max > cfg_.thresholds.emergency.value()) acc_.violation += dt;
      if (die_max > cfg_.thresholds.trigger.value()) {
        acc_.above_trigger += dt;
      }
      acc_.energy_j += total_watts * dt;
      acc_.max_true = std::max(acc_.max_true, die_max);
      acc_.spread_weighted += (die_max - tile_min_max) * dt;
      for (std::size_t i = 0; i < die_watts_.size(); ++i) {
        acc_.block_temp_weighted[i] += temps[i] * dt;
      }
    }

    // Die-level policies run on the fresh temperatures; their outputs
    // are frozen until the next barrier.
    if (cfg_.multicore.migration) {
      const core::MigrationDecision d =
          migration_.update(tile_states_, util::Seconds(t_));
      if (d.migrate) {
        apply_migration(d);
        if (measure) {
          ++tiles_[d.from]->migrations_out;
          ++tiles_[d.to]->migrations_in;
          MigrationEvent ev;
          ev.time_seconds = t_;
          ev.from = d.from;
          ev.to = d.to;
          ev.tmax_before_celsius = die_max;
          ev.tmax_after_celsius = die_max;  // refined at the next barrier
          migration_events_.push_back(ev);
        }
        static const obs::Counter migration_counter =
            obs::metrics().counter("multicore.migrations");
        migration_counter.add();
        if (tracer.enabled() && die_lane_ != obs::SimLaneScope::kNoLane) {
          tracer.instant(die_lane_, obs::TimeDomain::kSim, "multicore",
                         "thread_migration", t_ * kSimUs, "from",
                         static_cast<double>(d.from), "to",
                         static_cast<double>(d.to));
        }
      }
    }
    if (arbiter_.enabled()) {
      for (std::size_t t = 0; t < cores; ++t) {
        double p = 0.0;
        for (double w : tiles_[t]->watts) p += w;
        tile_power_[t] = util::Watts(p);
      }
      arbiter_.update(tile_power_, tile_occupied_);
      if (measure) {
        bool throttled = false;
        for (const core::ArbiterCommand& c : arbiter_.commands()) {
          if (c.fetch_gate_floor > 0.0 || c.dvs_floor > 0) throttled = true;
        }
        if (throttled) acc_.throttled += interval_dt_;
      }
    }
    if (!cfg_.multicore.per_core_dvs) {
      std::size_t floor = 0;
      for (const auto& tile : tiles_) {
        floor = std::max(floor, tile->requested_dvs);
      }
      global_dvs_floor_ = floor;
    }
  }
}

MulticoreResult MulticoreSystem::run(const util::CancelToken* cancel) {
  cancel_ = cancel;
  const std::uint64_t guard_trips_before = solver_.fused_guard_trips();
  obs::Tracer& tracer = obs::tracer();
  if (tracer.enabled()) {
    die_lane_ = tracer.new_lane(
        benchmark_name_ + "/" + policy_name_ + "/die",
        obs::TimeDomain::kSim);
    for (auto& tile : tiles_) {
      tile->lane = tracer.new_lane(
          benchmark_name_ + "/" + policy_name_ + "/c" +
              std::to_string(tile->index),
          obs::TimeDomain::kSim);
    }
  }
  const obs::SimLaneScope sim_scope(die_lane_);

  {
    const obs::ScopedSpan span(tracer, "system", "init_thermal",
                               benchmark_name_);
    initialize_thermal_state();
  }
  {
    const obs::ScopedSpan span(tracer, "system", "warmup", benchmark_name_);
    advance_intervals(total_committed() + cfg_.warmup_instructions, false);
  }

  acc_.reset();
  migration_events_.clear();
  migrations_pending_after_ = 0;
  migration_.reset();
  arbiter_.reset();
  acc_.start_committed = total_committed();
  std::uint64_t start_cycles = 0;
  for (auto& tile : tiles_) {
    tile->reset_measure();
    start_cycles += tile->start_cycles;
  }
  acc_.start_cycles = start_cycles;

  {
    const obs::ScopedSpan span(tracer, "system", "measure", benchmark_name_);
    advance_intervals(acc_.start_committed + cfg_.run_instructions, true);
  }

  const std::size_t cores = tiles_.size();
  MulticoreResult out;
  RunResult& r = out.aggregate;
  r.benchmark = benchmark_name_;
  r.policy = policy_name_;
  r.cores = cores;
  r.wall_seconds = acc_.wall;
  r.instructions = total_committed() - acc_.start_committed;
  std::uint64_t cycles = 0;
  std::uint64_t idle = 0;
  for (const auto& tile : tiles_) {
    cycles += tile->core.cycles();
    idle += tile->idle_cycles;
  }
  r.cycles = cycles - acc_.start_cycles;
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  r.max_true_celsius = acc_.max_true;
  const double wall = acc_.wall;
  const double tile_wall = wall * static_cast<double>(cores);
  if (wall > 0.0) {
    r.violation_fraction = acc_.violation / wall;
    r.above_trigger_fraction = acc_.above_trigger / wall;
    r.mean_power_watts = acc_.energy_j / wall;
    r.core_temp_spread_celsius = acc_.spread_weighted / wall;
    r.budget_throttled_fraction = acc_.throttled / wall;
    double gate_w = 0.0, issue_w = 0.0, dvs_w = 0.0, cg_w = 0.0;
    double fs_w = 0.0;
    for (const auto& tile : tiles_) {
      gate_w += tile->gate_weighted;
      issue_w += tile->issue_gate_weighted;
      dvs_w += tile->dvs_low;
      cg_w += tile->clock_gated;
      fs_w += tile->failsafe_wall;
    }
    // Per-tile fractions average over ALL tiles (idle tiles dilute —
    // they really are un-throttled silicon on this die).
    r.mean_gate_fraction = gate_w / tile_wall;
    r.mean_issue_gate_fraction = issue_w / tile_wall;
    r.dvs_low_fraction = dvs_w / tile_wall;
    r.clock_gated_fraction = cg_w / tile_wall;
    r.failsafe_fraction = fs_w / tile_wall;
    std::size_t hottest = 0;
    for (std::size_t i = 1; i < acc_.block_temp_weighted.size(); ++i) {
      if (acc_.block_temp_weighted[i] > acc_.block_temp_weighted[hottest]) {
        hottest = i;
      }
    }
    r.hottest_block = std::string(shared_->fp.block(hottest).name);
    r.hottest_mean_celsius = acc_.block_temp_weighted[hottest] / wall;
  }
  if (r.cycles > 0) {
    r.idle_skip_fraction =
        static_cast<double>(idle) / static_cast<double>(r.cycles);
  }
  std::size_t transitions = 0;
  for (const auto& tile : tiles_) transitions += tile->transitions;
  r.dvs_transitions = transitions;
  r.thread_migrations = migration_events_.size();
  r.solver_guard_trips = solver_.fused_guard_trips() - guard_trips_before;
  for (const auto& tile : tiles_) {
    if (tile->guard) {
      r.sensor_rejections += tile->guard->stats().rejected_readings;
      r.quarantine_entries += tile->guard->stats().quarantine_entries;
    }
  }

  out.per_core.reserve(cores);
  for (const auto& tile : tiles_) {
    CoreRunStats s;
    s.tile = tile->index;
    s.instructions = tile->core.committed() - tile->start_committed;
    s.cycles = tile->core.cycles() - tile->start_cycles;
    s.ipc = s.cycles == 0 ? 0.0
                          : static_cast<double>(s.instructions) /
                                static_cast<double>(s.cycles);
    s.max_true_celsius = tile->max_true;
    if (wall > 0.0) {
      s.mean_gate_fraction = tile->gate_weighted / wall;
      s.dvs_low_fraction = tile->dvs_low / wall;
      s.occupied_fraction = tile->occupied_wall / wall;
    }
    s.dvs_transitions = tile->transitions;
    s.migrations_in = tile->migrations_in;
    s.migrations_out = tile->migrations_out;
    out.per_core.push_back(s);
  }
  out.migrations = migration_events_;
  cancel_ = nullptr;
  return out;
}

}  // namespace hydra::sim
