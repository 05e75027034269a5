#include "sim/system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "thermal/solver.h"

namespace hydra::sim {
namespace {

constexpr double kEps = 1e-12;

/// Simulated seconds -> trace microseconds (the sim time domain renders
/// simulated time on Perfetto's microsecond axis).
constexpr double kSimUs = 1e6;

/// True when DTM events should be recorded: tracing is on and a System
/// run opened a sim lane on this thread.
inline bool sim_trace_on(const obs::Tracer& tracer, std::uint32_t lane) {
  return tracer.enabled() && lane != obs::SimLaneScope::kNoLane;
}

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
      vf_curve_(cfg.v_nominal, cfg.f_nominal, cfg.v_threshold, cfg.vf_alpha),
      ladder_(vf_curve_, cfg.dvs_steps, cfg.v_low_fraction),
      power_(fp_, power::EnergyModel()),
      trace_(profile),
      core_(cfg.core, trace_),
      sensors_(floorplan::kNumBlocks, cfg.sensor),
      policy_(std::move(policy)),
      guard_(dynamic_cast<core::GuardedPolicy*>(policy_.get())),
      solver_(model_.network, cfg.package.ambient,
              cfg.fused_thermal ? thermal::Scheme::kFusedBE
                                : thermal::Scheme::kBackwardEuler,
              shared_->lu_cache) {
  if (!cfg_.fault_campaign.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        sensors_, cfg_.fault_campaign, cfg_.time_scale);
  }
  sensor_period_s_ =
      1.0 / (cfg_.sensor.sample_rate.value() * cfg_.time_scale);
  switch_time_s_ = cfg_.dvs_switch_time.value() / cfg_.time_scale;
  gate_quantum_ = cfg_.clock_gate_quantum.value() / cfg_.time_scale;
  freq_hz_ = ladder_.point(0).frequency.value();
  watts_.resize(floorplan::kNumBlocks);
  expanded_.resize(model_.network.size());
  sample_.sensed_celsius.reserve(floorplan::kNumBlocks);
  acc_.block_temp_weighted.assign(floorplan::kNumBlocks, 0.0);
  benchmark_name_ = profile.name;
  probe_auto_instructions_ = 0;
  for (const workload::PhaseSpec& ph : profile.phases) {
    probe_auto_instructions_ += ph.length_instructions;
  }
  if (probe_auto_instructions_ == 0) probe_auto_instructions_ = 300'000;
}

void System::initialize_thermal_state() {
  // Probe a representative slice of the workload for its activity. A
  // warm-up third is discarded (cold compulsory misses would bias the
  // estimate low); the measured window then spans one full phase
  // rotation so the estimate reflects long-run average power.
  std::uint64_t probe = cfg_.activity_probe_instructions;
  if (probe == 0) {
    probe = std::min<std::uint64_t>(probe_auto_instructions_, 2'000'000);
  }
  const std::uint64_t start = core_.committed();
  while (core_.committed() < start + probe / 3) core_.cycle();
  core_.take_interval_activity();
  while (core_.committed() < start + probe / 3 + probe) core_.cycle();
  const arch::ActivityFrame frame = core_.take_interval_activity();

  // Power <-> temperature fixed point (leakage depends on temperature).
  // The shared steady-state factorisation of G replaces a fresh LU per
  // iteration; same matrix, so the result is bit-identical. All scratch
  // is preallocated member state so repeated run() calls do not allocate.
  const util::Celsius ambient = cfg_.package.ambient;
  init_temps_.assign(model_.network.size(), ambient.value() + 30.0);
  const auto& nominal = ladder_.point(0);
  const thermal::LuFactorization& g_lu = shared_->lu_cache->steady();
  for (int iter = 0; iter < 10; ++iter) {
    power_.block_power_into(frame, nominal.voltage, nominal.frequency,
                            init_temps_, watts_);
    model_.expand_power_into(watts_, expanded_);
    thermal::steady_state_into(g_lu, expanded_, ambient, init_temps_);
  }
  solver_.set_temperatures(init_temps_);

  t_ = 0.0;
  next_sensor_t_ = sensor_period_s_;
  interval_cycles_ = 0;
  interval_wall_ = 0.0;
}

void System::apply_dvs_level(std::size_t level) {
  dvs_level_ = level;
  freq_hz_ = ladder_.point(level).frequency.value();
  core_.set_frequency(freq_hz_);

  obs::Tracer& tracer = obs::tracer();
  if (sim_trace_on(tracer, sim_lane_)) {
    const double ts = t_ * kSimUs;
    tracer.instant(sim_lane_, obs::TimeDomain::kSim, "dtm",
                   "dvs_level_applied", ts, "level",
                   static_cast<double>(level), "freq_ghz", freq_hz_ / 1e9);
    tracer.counter(sim_lane_, obs::TimeDomain::kSim, "frequency_ghz", ts,
                   freq_hz_ / 1e9);
  }
}

void System::sensor_event(bool measure) {
  if (policy_) {
    if (injector_) {
      injector_->sample_into(solver_.temperatures(), t_,
                             sample_.sensed_celsius);
    } else {
      sensors_.sample_into(solver_.temperatures(), sample_.sensed_celsius);
    }
    sample_.max_sensed = util::Celsius(*std::max_element(
        sample_.sensed_celsius.begin(), sample_.sensed_celsius.end()));
    sample_.time = util::Seconds(t_);
    const core::DtmCommand cmd = policy_->update(sample_);

    const double prev_gate = gate_fraction_;
    const double prev_issue = issue_gate_fraction_;
    const bool prev_clock_req = clock_gate_requested_;

    gate_fraction_ = cmd.fetch_gate_fraction;
    core_.set_fetch_gate_fraction(gate_fraction_);
    issue_gate_fraction_ = cmd.issue_gate_fraction;
    core_.set_issue_gate_fraction(issue_gate_fraction_);

    clock_gate_requested_ = cmd.clock_gate;
    if (clock_gate_requested_ && !clock_gate_on_) {
      clock_gate_on_ = true;
      quantum_end_t_ = t_ + gate_quantum_;
    } else if (!clock_gate_requested_) {
      clock_gate_on_ = false;
    }

    bool transition_started = false;
    if (!transition_active_ && cmd.dvs_level != dvs_level_) {
      if (cmd.dvs_level >= ladder_.size()) {
        throw std::out_of_range("policy requested DVS level beyond ladder");
      }
      pending_level_ = cmd.dvs_level;
      transition_active_ = true;
      transition_end_t_ = t_ + switch_time_s_;
      transition_started = true;
      if (measure) ++acc_.transitions;
      static const obs::Counter dvs_transitions =
          obs::metrics().counter("dtm.dvs_transitions");
      dvs_transitions.add();
    }

    obs::Tracer& tracer = obs::tracer();
    if (sim_trace_on(tracer, sim_lane_)) {
      const double ts = t_ * kSimUs;
      if (gate_fraction_ != prev_gate) {
        tracer.counter(sim_lane_, obs::TimeDomain::kSim, "fetch_gate_duty",
                       ts, gate_fraction_);
      }
      if (issue_gate_fraction_ != prev_issue) {
        tracer.counter(sim_lane_, obs::TimeDomain::kSim, "issue_gate_duty",
                       ts, issue_gate_fraction_);
      }
      if (clock_gate_requested_ != prev_clock_req) {
        tracer.instant(sim_lane_, obs::TimeDomain::kSim, "dtm",
                       clock_gate_requested_ ? "clock_gate_request"
                                             : "clock_gate_release",
                       ts);
      }
      if (transition_started) {
        tracer.instant(sim_lane_, obs::TimeDomain::kSim, "dtm",
                       "dvs_transition_start", ts, "from_level",
                       static_cast<double>(dvs_level_), "to_level",
                       static_cast<double>(pending_level_));
      }
    }

    // Policy engage/disengage edges: "engaged" means any actuation is in
    // effect (throttling, clock gating, or a non-nominal/changing DVS
    // operating point).
    const bool engaged = gate_fraction_ > 0.0 || issue_gate_fraction_ > 0.0 ||
                         clock_gate_requested_ || transition_active_ ||
                         dvs_level_ != 0;
    if (engaged != policy_engaged_) {
      policy_engaged_ = engaged;
      if (engaged) {
        static const obs::Counter engagements =
            obs::metrics().counter("dtm.policy_engagements");
        engagements.add();
      }
      if (sim_trace_on(tracer, sim_lane_)) {
        tracer.instant(sim_lane_, obs::TimeDomain::kSim, "dtm",
                       engaged ? "policy_engage" : "policy_disengage",
                       t_ * kSimUs, "max_sensed", sample_.max_sensed.value());
      }
    }
  }
  next_sensor_t_ += sensor_period_s_;
}

void System::thermal_and_power_step(bool measure) {
  const arch::ActivityFrame frame = core_.take_interval_activity();
  const auto& op = ladder_.point(dvs_level_);
  power_.block_power_into(frame, op.voltage, op.frequency,
                          solver_.temperatures(), watts_);
  const double dt = interval_wall_;
  model_.expand_power_into(watts_, expanded_);
  solver_.step(expanded_, util::Seconds(dt));

  const thermal::Vector& temps = solver_.temperatures();
  const double max_true = max_block_temp(temps, floorplan::kNumBlocks);
  double total_watts = 0.0;
  for (double w : watts_) total_watts += w;

  static const obs::Histogram tmax_hist = obs::metrics().histogram(
      "system.step_tmax_celsius",
      {50.0, 60.0, 70.0, 75.0, 80.0, 81.8, 85.0, 90.0, 100.0});
  tmax_hist.record(max_true);

  obs::Tracer& tracer = obs::tracer();
  if (sim_trace_on(tracer, sim_lane_)) {
    const double ts = t_ * kSimUs;
    tracer.counter(sim_lane_, obs::TimeDomain::kSim, "Tmax_celsius", ts,
                   max_true);
    tracer.counter(sim_lane_, obs::TimeDomain::kSim, "power_watts", ts,
                   total_watts);
  }
  const bool emergency = max_true > cfg_.thresholds.emergency.value();
  if (emergency != in_emergency_) {
    in_emergency_ = emergency;
    if (emergency) {
      static const obs::Counter crossings =
          obs::metrics().counter("dtm.emergency_crossings");
      crossings.add();
    }
    if (sim_trace_on(tracer, sim_lane_)) {
      tracer.instant(sim_lane_, obs::TimeDomain::kSim, "thermal",
                     emergency ? "thermal_emergency_begin"
                               : "thermal_emergency_end",
                     t_ * kSimUs, "max_true", max_true);
    }
  }

  if (measure) {
    if (max_true > cfg_.thresholds.emergency.value()) acc_.violation += dt;
    if (max_true > cfg_.thresholds.trigger.value()) acc_.above_trigger += dt;
    if (injector_ && injector_->any_active(t_)) {
      acc_.fault_window += dt;
      if (max_true > cfg_.thresholds.emergency.value()) {
        acc_.fault_violation += dt;
      }
    }
    acc_.gate_weighted += gate_fraction_ * dt;
    acc_.issue_gate_weighted += issue_gate_fraction_ * dt;
    acc_.energy_j += total_watts * dt;
    acc_.max_true = std::max(acc_.max_true, max_true);
    for (std::size_t i = 0; i < floorplan::kNumBlocks; ++i) {
      acc_.block_temp_weighted[i] += temps[i] * dt;
    }
  }

  if (measure && trace_cb_) {
    StepTrace st;
    st.time_seconds = t_;
    st.max_true_celsius = max_true;
    st.voltage = op.voltage;
    st.frequency = op.frequency;
    st.gate_fraction = gate_fraction_;
    st.clock_gated = clock_gate_on_;
    st.committed = core_.committed();
    st.power_watts = total_watts;
    trace_cb_(st);
  }

  interval_cycles_ = 0;
  interval_wall_ = 0.0;
}

double System::next_event_time() const {
  double next_event = next_sensor_t_;
  if (transition_active_) {
    next_event = std::min(next_event, transition_end_t_);
  }
  if (clock_gate_on_ || clock_gate_requested_) {
    next_event = std::min(next_event, quantum_end_t_);
  }
  return next_event;
}

void System::advance_until(std::uint64_t target_committed, bool measure,
                           bool run_out_interval) {
  // The next scheduled event and the applied clock are loop invariants
  // between event firings, so both are hoisted out of the per-chunk loop:
  // next_event is recomputed only after a handler fires and freq_hz_ is a
  // member updated by apply_dvs_level.
  double next_event = next_event_time();
  while (core_.committed() < target_committed ||
         (run_out_interval && interval_cycles_ > 0)) {
    // Cooperative supervision point: at most one predicted-false branch
    // per chunk when no token is armed, one atomic load when it is.
    if (cancel_ != nullptr && cancel_->stop_requested()) {
      cancel_->throw_if_stopped(benchmark_name_);
    }
    const long long n =
        chunk_cycles(next_event, t_, freq_hz_,
                     cfg_.thermal_interval_cycles - interval_cycles_);

    const bool stalled = transition_active_ && cfg_.dvs_stall;
    if (clock_gate_on_ || stalled) {
      // Idle spans touch no pipeline state, so the whole chunk advances
      // in O(1); the result is bit-identical to the per-cycle loop
      // (fastpath_test asserts it), which stays behind a test seam as
      // the reference path. A gated clock tree burns no base power
      // (clocked=false); a stalled-but-clocked pipeline does.
      if (per_cycle_idle_) {
        for (long long i = 0; i < n; ++i) core_.idle_cycle(!clock_gate_on_);
      } else {
        core_.idle_cycles(static_cast<std::uint64_t>(n), !clock_gate_on_);
      }
      // Counted on both paths so RunResults stay comparable bit-for-bit.
      if (measure) acc_.idle_cycles += static_cast<std::uint64_t>(n);
    } else {
      for (long long i = 0; i < n; ++i) core_.cycle();
    }

    const double dt = static_cast<double>(n) / freq_hz_;
    t_ += dt;
    interval_cycles_ += n;
    interval_wall_ += dt;
    if (measure) {
      acc_.wall += dt;
      if (dvs_level_ != 0) acc_.dvs_low += dt;
      if (clock_gate_on_) acc_.clock_gated += dt;
      if (guard_ && guard_->failsafe_engaged()) acc_.failsafe += dt;
    }

    if (interval_cycles_ >= cfg_.thermal_interval_cycles) {
      thermal_and_power_step(measure);
    }
    bool events_changed = false;
    if (transition_active_ && t_ >= transition_end_t_ - kEps) {
      transition_active_ = false;
      apply_dvs_level(pending_level_);
      events_changed = true;
    }
    if ((clock_gate_on_ || clock_gate_requested_) &&
        t_ >= quantum_end_t_ - kEps) {
      // Alternate gated / running quanta while the policy requests gating
      // (Pentium-4-style stop-go at the quantum granularity).
      clock_gate_on_ = !clock_gate_on_ && clock_gate_requested_;
      quantum_end_t_ = t_ + gate_quantum_;
      events_changed = true;
    }
    if (t_ >= next_sensor_t_ - kEps) {
      sensor_event(measure);
      events_changed = true;
    }
    if (events_changed) next_event = next_event_time();
  }
}

void System::warmup() {
  advance_until(core_.committed() + cfg_.warmup_instructions, false);
}

RunResult System::run(const util::CancelToken* cancel) {
  cancel_ = cancel;
  const std::uint64_t guard_trips_before = solver_.fused_guard_trips();
  obs::Tracer& tracer = obs::tracer();
  if (tracer.enabled()) {
    sim_lane_ = tracer.new_lane(
        benchmark_name_ + "/" +
            (policy_ ? std::string(policy_->name()) : "baseline"),
        obs::TimeDomain::kSim);
  }
  // Publish this run's sim lane thread-locally so deep layers (policies,
  // the fault injector) can emit sim-time events without plumbing.
  const obs::SimLaneScope sim_scope(sim_lane_);

  {
    const obs::ScopedSpan span(tracer, "system", "init_thermal",
                               benchmark_name_);
    initialize_thermal_state();
  }
  {
    const obs::ScopedSpan span(tracer, "system", "warmup", benchmark_name_);
    warmup();
    // Warm-up stops at an instruction count, generally mid-interval; run
    // the remainder of that thermal interval (still unmeasured) so the
    // measured window starts on an interval boundary (otherwise the
    // first measured step integrates pre-measurement time and fractions
    // can exceed 1). Running to the boundary rather than flushing a
    // partial-length step keeps the backward-Euler dt set bounded, so
    // repeated run() calls stay allocation-free.
    if (interval_cycles_ > 0) {
      advance_until(core_.committed(), false, /*run_out_interval=*/true);
    }
  }

  acc_.reset();
  acc_.start_committed = core_.committed();
  acc_.start_cycles = core_.cycles();
  // Campaign times are relative to the measured window: arm the injector
  // now that warm-up is done.
  if (injector_) injector_->set_origin(t_);

  {
    const obs::ScopedSpan span(tracer, "system", "measure", benchmark_name_);
    advance_until(acc_.start_committed + cfg_.run_instructions, true);
  }

  RunResult r;
  r.benchmark = benchmark_name_;
  r.policy = policy_ ? std::string(policy_->name()) : "baseline";
  r.wall_seconds = acc_.wall;
  r.instructions = core_.committed() - acc_.start_committed;
  r.cycles = core_.cycles() - acc_.start_cycles;
  r.ipc = r.cycles == 0 ? 0.0
                        : static_cast<double>(r.instructions) /
                              static_cast<double>(r.cycles);
  r.max_true_celsius = acc_.max_true;
  if (acc_.wall > 0.0) {
    r.violation_fraction = acc_.violation / acc_.wall;
    r.above_trigger_fraction = acc_.above_trigger / acc_.wall;
    r.mean_gate_fraction = acc_.gate_weighted / acc_.wall;
    r.mean_issue_gate_fraction = acc_.issue_gate_weighted / acc_.wall;
    r.dvs_low_fraction = acc_.dvs_low / acc_.wall;
    r.clock_gated_fraction = acc_.clock_gated / acc_.wall;
    r.mean_power_watts = acc_.energy_j / acc_.wall;
    std::size_t hottest = 0;
    for (std::size_t i = 1; i < floorplan::kNumBlocks; ++i) {
      if (acc_.block_temp_weighted[i] > acc_.block_temp_weighted[hottest]) {
        hottest = i;
      }
    }
    r.hottest_block = std::string(fp_.block(hottest).name);
    r.hottest_mean_celsius = acc_.block_temp_weighted[hottest] / acc_.wall;
    r.failsafe_fraction = acc_.failsafe / acc_.wall;
    r.fault_window_fraction = acc_.fault_window / acc_.wall;
    r.fault_violation_fraction = acc_.fault_violation / acc_.wall;
  }
  if (r.cycles > 0) {
    r.idle_skip_fraction = static_cast<double>(acc_.idle_cycles) /
                           static_cast<double>(r.cycles);
  }
  r.dvs_transitions = acc_.transitions;
  r.solver_guard_trips = solver_.fused_guard_trips() - guard_trips_before;
  cancel_ = nullptr;
  if (injector_) r.faulted_samples = injector_->counters().faulted_samples;
  if (guard_) {
    r.sensor_rejections = guard_->stats().rejected_readings;
    r.quarantine_entries = guard_->stats().quarantine_entries;
  }
  return r;
}

}  // namespace hydra::sim
