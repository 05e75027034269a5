#include "sim/system.h"

#include <algorithm>

#include "obs/obs.h"
#include "thermal/solver.h"

namespace hydra::sim {
namespace {

double max_block_temp(const thermal::Vector& temps, std::size_t blocks) {
  double m = temps[0];
  for (std::size_t i = 1; i < blocks; ++i) m = std::max(m, temps[i]);
  return m;
}

}  // namespace

System::System(const workload::WorkloadProfile& profile, const SimConfig& cfg,
               std::unique_ptr<core::DtmPolicy> policy)
    : cfg_(cfg),
      shared_(ModelCache::global().get(cfg)),
      fp_(shared_->fp),
      model_(shared_->model),
      env_(cfg_, fp_),
      trace_(profile),
      tile_(std::make_unique<Tile>(env_, 0, trace_, std::move(policy))),
      solver_(model_.network, cfg.package.ambient,
              cfg.fused_thermal ? thermal::Scheme::kFusedBE
                                : thermal::Scheme::kBackwardEuler,
              shared_->lu_cache),
      benchmark_name_(profile.name),
      probe_instructions_(probe_instructions(cfg, profile)) {
  scratch_.expanded.resize(model_.network.size());
  acc_.block_temp_weighted.assign(floorplan::kNumBlocks, 0.0);
}

void System::initialize_thermal_state() {
  tile_->probe(probe_instructions_);
  steady_state_temperatures(*shared_, std::span(&tile_, 1), 1.0, scratch_,
                            init_temps_);
  solver_.set_temperatures(init_temps_);
  tile_->start();
  interval_cycles_ = 0;
  interval_wall_ = 0.0;
}

void System::thermal_step(bool measure) {
  Tile& tile = *tile_;
  tile.interval_power(solver_.temperatures(), 1.0);
  const double dt = interval_wall_;
  model_.expand_power_into(tile.watts, scratch_.expanded);
  solver_.step(scratch_.expanded, util::Seconds(dt));

  const thermal::Vector& temps = solver_.temperatures();
  const double max_true = max_block_temp(temps, floorplan::kNumBlocks);
  double total_watts = 0.0;
  for (double w : tile.watts) total_watts += w;

  static const obs::Histogram tmax_hist = obs::metrics().histogram(
      "system.step_tmax_celsius",
      {50.0, 60.0, 70.0, 75.0, 80.0, 81.8, 85.0, 90.0, 100.0});
  tmax_hist.record(max_true);
  obs::Tracer& tracer = obs::tracer();
  if (obs::sim_trace_on(tracer, tile.lane)) {
    tracer.counter(tile.lane, obs::TimeDomain::kSim, "power_watts",
                   tile.t * obs::kSimUs, total_watts);
  }
  tile.note_tmax(max_true, tile.t, measure);

  if (measure) {
    const double emergency = cfg_.thresholds.emergency.value();
    if (max_true > emergency) acc_.violation += dt;
    if (max_true > cfg_.thresholds.trigger.value()) acc_.above_trigger += dt;
    if (tile.injector && tile.injector->any_active(tile.t)) {
      acc_.fault_window += dt;
      if (max_true > emergency) acc_.fault_violation += dt;
    }
    acc_.gate_weighted += tile.gate_fraction * dt;
    acc_.issue_gate_weighted += tile.issue_gate_fraction * dt;
    acc_.energy_j += total_watts * dt;
    for (std::size_t i = 0; i < floorplan::kNumBlocks; ++i) {
      acc_.block_temp_weighted[i] += temps[i] * dt;
    }
  }

  if (measure && trace_cb_) {
    const auto& op = env_.ladder.point(tile.dvs_level);
    StepTrace st;
    st.time_seconds = tile.t;
    st.max_true_celsius = max_true;
    st.voltage = op.voltage;
    st.frequency = op.frequency;
    st.gate_fraction = tile.gate_fraction;
    st.clock_gated = tile.clock_gate_on;
    st.committed = tile.core.committed();
    st.power_watts = total_watts;
    trace_cb_(st);
  }

  interval_cycles_ = 0;
  interval_wall_ = 0.0;
}

void System::advance_until(std::uint64_t target_committed, bool measure,
                           bool run_out_interval) {
  Tile& tile = *tile_;
  // The next scheduled event is a loop invariant between event firings,
  // so it is recomputed only after one fires.
  double next_event = tile.next_event();
  while (tile.core.committed() < target_committed ||
         (run_out_interval && interval_cycles_ > 0)) {
    // Cooperative supervision point: at most one predicted-false branch
    // per chunk when no token is armed, one atomic load when it is.
    if (cancel_ != nullptr && cancel_->stop_requested()) {
      cancel_->throw_if_stopped(benchmark_name_);
    }
    const Chunk chunk = tile.advance(
        chunk_cycles(next_event, tile.t, tile.freq_hz,
                     cfg_.thermal_interval_cycles - interval_cycles_),
        measure);
    interval_cycles_ += chunk.cycles;
    interval_wall_ += chunk.dt;
    if (interval_cycles_ >= cfg_.thermal_interval_cycles) {
      thermal_step(measure);
    }
    if (tile.fire_events(solver_.temperatures(), DieFloors{}, measure)) {
      next_event = tile.next_event();
    }
  }
}

RunResult System::run(const util::CancelToken* cancel) {
  cancel_ = cancel;
  Tile& tile = *tile_;
  const std::uint64_t guard_trips_before = solver_.fused_guard_trips();
  obs::Tracer& tracer = obs::tracer();
  if (tracer.enabled()) {
    tile.lane = tracer.new_lane(
        benchmark_name_ + "/" +
            (tile.policy ? std::string(tile.policy->name()) : "baseline"),
        obs::TimeDomain::kSim);
  }
  // Publish this run's sim lane thread-locally so deep layers (policies,
  // the fault injector) can emit sim-time events without plumbing.
  const obs::SimLaneScope sim_scope(tile.lane);

  {
    const obs::ScopedSpan span(tracer, "system", "init_thermal",
                               benchmark_name_);
    initialize_thermal_state();
  }
  {
    const obs::ScopedSpan span(tracer, "system", "warmup", benchmark_name_);
    advance_until(tile.core.committed() + cfg_.warmup_instructions, false);
    // Warm-up stops at an instruction count, generally mid-interval; run
    // the remainder of that thermal interval (still unmeasured) so the
    // measured window starts on an interval boundary (otherwise the
    // first measured step integrates pre-measurement time and fractions
    // can exceed 1). Running to the boundary rather than flushing a
    // partial-length step keeps the backward-Euler dt set bounded, so
    // repeated run() calls stay allocation-free.
    if (interval_cycles_ > 0) {
      advance_until(tile.core.committed(), false, /*run_out_interval=*/true);
    }
  }

  acc_.reset();
  tile.begin_measure();
  {
    const obs::ScopedSpan span(tracer, "system", "measure", benchmark_name_);
    advance_until(tile.acc.start_committed + cfg_.run_instructions, true);
  }

  // The one thread never leaves its tile: the occupied wall is the
  // measured wall.
  const Tile::Accum& ta = tile.acc;
  const double wall = ta.occupied_wall;
  RunResult r;
  r.benchmark = benchmark_name_;
  r.policy = tile.policy ? std::string(tile.policy->name()) : "baseline";
  r.wall_seconds = wall;
  r.instructions = tile.core.committed() - ta.start_committed;
  r.cycles = tile.core.cycles() - ta.start_cycles;
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  r.max_true_celsius = ta.max_true;
  if (wall > 0.0) {
    r.violation_fraction = acc_.violation / wall;
    r.above_trigger_fraction = acc_.above_trigger / wall;
    r.mean_gate_fraction = acc_.gate_weighted / wall;
    r.mean_issue_gate_fraction = acc_.issue_gate_weighted / wall;
    r.dvs_low_fraction = ta.dvs_low / wall;
    r.clock_gated_fraction = ta.clock_gated / wall;
    r.mean_power_watts = acc_.energy_j / wall;
    std::size_t hottest = 0;
    for (std::size_t i = 1; i < floorplan::kNumBlocks; ++i) {
      if (acc_.block_temp_weighted[i] > acc_.block_temp_weighted[hottest]) {
        hottest = i;
      }
    }
    r.hottest_block = std::string(fp_.block(hottest).name);
    r.hottest_mean_celsius = acc_.block_temp_weighted[hottest] / wall;
    r.failsafe_fraction = ta.failsafe / wall;
    r.fault_window_fraction = acc_.fault_window / wall;
    r.fault_violation_fraction = acc_.fault_violation / wall;
  }
  if (r.cycles > 0) {
    r.idle_skip_fraction = static_cast<double>(ta.idle_cycles) /
                           static_cast<double>(r.cycles);
  }
  r.dvs_transitions = ta.transitions;
  r.solver_guard_trips = solver_.fused_guard_trips() - guard_trips_before;
  cancel_ = nullptr;
  if (tile.injector) {
    r.faulted_samples = tile.injector->counters().faulted_samples;
  }
  if (tile.guard) {
    r.sensor_rejections = tile.guard->stats().rejected_readings;
    r.quarantine_entries = tile.guard->stats().quarantine_entries;
  }
  return r;
}

}  // namespace hydra::sim
