#include "sim/multicore.h"

#include <algorithm>
#include <climits>
#include <stdexcept>

#include "floorplan/ev7.h"
#include "obs/obs.h"

namespace hydra::sim {
namespace {

constexpr double kEps = 1e-12;

}  // namespace

MulticoreSystem::MulticoreSystem(const workload::WorkloadProfile& profile,
                                 const SimConfig& cfg, PolicyFactory factory,
                                 std::string policy_name)
    : cfg_(cfg),
      shared_(ModelCache::global().get(cfg)),
      model_(shared_->model),
      env_(cfg_, floorplan::ev7_floorplan()),
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
      arbiter_(cfg.multicore.arbiter, cfg.multicore.cores, env_.ladder.size()),
      benchmark_name_(profile.name),
      policy_name_(std::move(policy_name)),
      probe_instructions_(probe_instructions(cfg, profile)) {
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
    // Idle tiles get a trace bound too (Core requires one) but never
    // fetch from it: unoccupied tiles only ever advance via idle cycles.
    workload::SyntheticTrace& trace =
        t < n_threads ? *threads_[t] : *threads_[0];
    auto tile = std::make_unique<Tile>(env_, t, trace,
                                       factory ? factory() : nullptr);
    tile->thread = t < n_threads ? t : Tile::kNoThread;
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

  interval_dt_ = static_cast<double>(cfg_.thermal_interval_cycles) /
                 cfg_.f_nominal.value();
  power_scale_ = 1.0 / static_cast<double>(cores);

  scratch_.die_watts.resize(cores * floorplan::kNumBlocks);
  scratch_.expanded.resize(model_.network.size());
  acc_.block_temp_weighted.assign(cores * floorplan::kNumBlocks, 0.0);
  tile_states_.resize(cores);
  tile_power_.assign(cores, util::Watts{0.0});
  tile_occupied_.assign(cores, false);
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
  // temperature fixed point.
  const auto probe_tile = [this](std::size_t i) {
    tiles_[i]->probe(probe_instructions_);
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < tiles_.size(); ++i) probe_tile(i);
  } else {
    pool_->for_each_index(tiles_.size(), probe_tile);
  }
  steady_state_temperatures(*shared_, tiles_, power_scale_, scratch_,
                            init_temps_);
  solver_.set_temperatures(init_temps_);

  t_ = 0.0;
  global_dvs_floor_ = 0;
  for (auto& tile : tiles_) tile->start();
}

void MulticoreSystem::step_tile(std::size_t i, double t_end, bool measure) {
  Tile& tile = *tiles_[i];
  // Policies trace to the calling thread's sim lane: this tile's.
  const obs::SimLaneScope lane(tile.lane);
  // Freeze this tile's temperatures for the interval: the solver only
  // advances at barriers, so this is the same fidelity as the
  // single-core System (which also samples interval-boundary state).
  const thermal::Vector& temps = solver_.temperatures();
  std::copy_n(temps.begin() +
                  static_cast<std::ptrdiff_t>(i * floorplan::kNumBlocks),
              floorplan::kNumBlocks, tile.temps_slice.begin());
  const DieFloors floors{arbiter_.commands()[i], global_dvs_floor_};

  double next_event = tile.next_event();
  while (tile.t < t_end - kEps) {
    tile.advance(chunk_cycles(std::min(next_event, t_end), tile.t,
                              tile.freq_hz, LLONG_MAX),
                 measure);
    if (tile.fire_events(tile.temps_slice, floors, measure)) {
      next_event = tile.next_event();
    }
  }

  // Tile watts scale by 1/cores (the tile is a 1/cores shrink of the
  // unit core). Any migration flush energy is spread across the tile's
  // blocks over this interval.
  tile.interval_power(tile.temps_slice, power_scale_);
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
  src.thread = Tile::kNoThread;
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
    std::vector<double>& die_watts = scratch_.die_watts;
    for (std::size_t t = 0; t < cores; ++t) {
      std::copy(tiles_[t]->watts.begin(), tiles_[t]->watts.end(),
                die_watts.begin() +
                    static_cast<std::ptrdiff_t>(t * floorplan::kNumBlocks));
    }
    model_.expand_power_into(die_watts, scratch_.expanded);
    solver_.step(scratch_.expanded, util::Seconds(interval_dt_));
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
      tile_states_[t].occupied = tile.thread != Tile::kNoThread;
      tile_occupied_[t] = tile_states_[t].occupied;
      die_max = std::max(die_max, tmax);
      tile_min_max = t == 0 ? tmax : std::min(tile_min_max, tmax);
      tile.note_tmax(tmax, t_, measure);
    }
    // Now that the die temperature moved, fill in the after-temperature
    // of migrations applied at earlier barriers.
    for (; migrations_pending_after_ < migration_events_.size();
         ++migrations_pending_after_) {
      migration_events_[migrations_pending_after_].tmax_after_celsius =
          die_max;
    }

    double total_watts = 0.0;
    for (double w : die_watts) total_watts += w;

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
      for (std::size_t i = 0; i < die_watts.size(); ++i) {
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
          ++tiles_[d.from]->acc.migrations_out;
          ++tiles_[d.to]->acc.migrations_in;
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
        if (obs::sim_trace_on(tracer, die_lane_)) {
          tracer.instant(die_lane_, obs::TimeDomain::kSim, "multicore",
                         "thread_migration", t_ * obs::kSimUs, "from",
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
    tile->begin_measure();
    start_cycles += tile->acc.start_cycles;
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
    idle += tile->acc.idle_cycles;
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
      gate_w += tile->acc.gate_weighted;
      issue_w += tile->acc.issue_gate_weighted;
      dvs_w += tile->acc.dvs_low;
      cg_w += tile->acc.clock_gated;
      fs_w += tile->acc.failsafe;
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
  for (const auto& tile : tiles_) transitions += tile->acc.transitions;
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
    const Tile::Accum& ta = tile->acc;
    CoreRunStats s;
    s.tile = tile->index;
    s.instructions = tile->core.committed() - ta.start_committed;
    s.cycles = tile->core.cycles() - ta.start_cycles;
    s.ipc = s.cycles == 0 ? 0.0
                          : static_cast<double>(s.instructions) /
                                static_cast<double>(s.cycles);
    s.max_true_celsius = ta.max_true;
    if (wall > 0.0) {
      s.mean_gate_fraction = ta.gate_weighted / wall;
      s.dvs_low_fraction = ta.dvs_low / wall;
      s.occupied_fraction = ta.occupied_wall / wall;
    }
    s.dvs_transitions = ta.transitions;
    s.migrations_in = ta.migrations_in;
    s.migrations_out = ta.migrations_out;
    out.per_core.push_back(s);
  }
  out.migrations = migration_events_;
  cancel_ = nullptr;
  return out;
}

}  // namespace hydra::sim
