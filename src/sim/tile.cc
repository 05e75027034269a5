#include "sim/tile.h"

#include <stdexcept>

#include "obs/obs.h"
#include "thermal/sparse.h"

namespace hydra::sim {
namespace {

constexpr double kEps = 1e-12;

}  // namespace

std::uint64_t probe_instructions(const SimConfig& cfg,
                                 const workload::WorkloadProfile& profile) {
  if (cfg.activity_probe_instructions != 0) {
    return cfg.activity_probe_instructions;
  }
  std::uint64_t rotation = 0;
  for (const workload::PhaseSpec& ph : profile.phases) {
    rotation += ph.length_instructions;
  }
  if (rotation == 0) rotation = 300'000;
  return std::min<std::uint64_t>(rotation, 2'000'000);
}

power::DvsLadder make_ladder(const SimConfig& cfg) {
  const power::VoltageFrequencyCurve curve(cfg.v_nominal, cfg.f_nominal,
                                           cfg.v_threshold, cfg.vf_alpha);
  return power::DvsLadder(curve, cfg.dvs_steps, cfg.v_low_fraction);
}

TileEnv::TileEnv(const SimConfig& c, const floorplan::Floorplan& unit)
    : cfg(c),
      ladder(make_ladder(c)),
      power(unit, power::EnergyModel()),
      sensor_period_s(1.0 / (c.sensor.sample_rate.value() * c.time_scale)),
      switch_time_s(c.dvs_switch_time.value() / c.time_scale),
      gate_quantum_s(c.clock_gate_quantum.value() / c.time_scale) {}

Tile::Tile(const TileEnv& e, std::size_t i, arch::TraceSource& trace,
           std::unique_ptr<core::DtmPolicy> pol)
    : env(e),
      index(i),
      core(e.cfg.core, trace),
      sensors(floorplan::kNumBlocks,
              [&e, i] {
                sensor::SensorConfig s = e.cfg.sensor;
                s.seed = e.cfg.sensor.seed + i;  // independent per-tile noise
                return s;
              }()),
      policy(std::move(pol)),
      guard(dynamic_cast<core::GuardedPolicy*>(policy.get())),
      freq_hz(e.ladder.point(0).frequency.value()) {
  if (!e.cfg.fault_campaign.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        sensors, e.cfg.fault_campaign, e.cfg.time_scale);
  }
  watts.resize(floorplan::kNumBlocks);
  temps_slice.resize(floorplan::kNumBlocks);
  sample.sensed_celsius.reserve(floorplan::kNumBlocks);
}

void Tile::probe(std::uint64_t instructions) {
  if (thread == kNoThread) {
    probe_frame = arch::ActivityFrame{};
    return;
  }
  // The measured window spans one full phase rotation (probe_instructions)
  // so the estimate reflects long-run average power.
  const std::uint64_t start = core.committed();
  while (core.committed() < start + instructions / 3) core.cycle();
  core.take_interval_activity();
  while (core.committed() < start + instructions / 3 + instructions) {
    core.cycle();
  }
  probe_frame = core.take_interval_activity();
}

void Tile::start() {
  t = 0.0;
  next_sensor_t = env.sensor_period_s;
}

void Tile::begin_measure() {
  acc = Accum{};
  acc.start_committed = core.committed();
  acc.start_cycles = core.cycles();
  // Campaign times are relative to the measured window.
  if (injector) injector->set_origin(t);
}

double Tile::next_event() const {
  double next = next_sensor_t;
  if (transition_active) next = std::min(next, transition_end_t);
  if (clock_gate_on || clock_gate_requested) {
    next = std::min(next, quantum_end_t);
  }
  return next;
}

Chunk Tile::advance(long long n, bool measure) {
  const bool occupied = thread != kNoThread;
  const bool stalled = transition_active && env.cfg.dvs_stall;
  if (stall_cycles > 0) {
    // Migration context switch: both endpoints burn clocked-idle cycles
    // (the pipeline drains / refills; the clock tree runs).
    n = std::min<long long>(n, static_cast<long long>(stall_cycles));
    core.idle_cycles(static_cast<std::uint64_t>(n), true);
    stall_cycles -= static_cast<std::uint64_t>(n);
    if (measure) acc.idle_cycles += static_cast<std::uint64_t>(n);
  } else if (clock_gate_on || stalled || !occupied) {
    // Idle spans touch no pipeline state, so the whole chunk advances in
    // O(1); the result is bit-identical to the per-cycle loop
    // (fastpath_test asserts it), which stays behind a test seam as the
    // reference path. A gated clock tree burns no base power; a stalled
    // but clocked pipeline does. An unoccupied tile is clock-gated
    // silicon: no thread, no clock tree, only leakage.
    const bool clocked = !clock_gate_on && occupied;
    if (per_cycle_idle) {
      for (long long i = 0; i < n; ++i) core.idle_cycle(clocked);
    } else {
      core.idle_cycles(static_cast<std::uint64_t>(n), clocked);
    }
    if (measure) acc.idle_cycles += static_cast<std::uint64_t>(n);
  } else {
    for (long long i = 0; i < n; ++i) core.cycle();
  }

  const double dt = static_cast<double>(n) / freq_hz;
  t += dt;
  if (measure) {
    acc.gate_weighted += gate_fraction * dt;
    acc.issue_gate_weighted += issue_gate_fraction * dt;
    if (dvs_level != 0) acc.dvs_low += dt;
    if (clock_gate_on) acc.clock_gated += dt;
    if (occupied) acc.occupied_wall += dt;
    if (guard && guard->failsafe_engaged()) acc.failsafe += dt;
  }
  return {n, dt};
}

bool Tile::fire_events(const std::vector<double>& truth,
                       const DieFloors& floors, bool measure) {
  bool fired = false;
  if (transition_active && t >= transition_end_t - kEps) {
    transition_active = false;
    apply_dvs_level(pending_level);
    fired = true;
  }
  if ((clock_gate_on || clock_gate_requested) && t >= quantum_end_t - kEps) {
    // Alternate gated / running quanta while the policy requests gating
    // (Pentium-4-style stop-go at the quantum granularity).
    clock_gate_on = !clock_gate_on && clock_gate_requested;
    quantum_end_t = t + env.gate_quantum_s;
    fired = true;
  }
  if (t >= next_sensor_t - kEps) {
    sensor_event(truth, floors, measure);
    fired = true;
  }
  return fired;
}

void Tile::apply_dvs_level(std::size_t level) {
  dvs_level = level;
  freq_hz = env.ladder.point(level).frequency.value();
  core.set_frequency(freq_hz);

  obs::Tracer& tracer = obs::tracer();
  if (obs::sim_trace_on(tracer, lane)) {
    const double ts = t * obs::kSimUs;
    tracer.instant(lane, obs::TimeDomain::kSim, "dtm", "dvs_level_applied",
                   ts, "level", static_cast<double>(level), "freq_ghz",
                   freq_hz / 1e9);
    tracer.counter(lane, obs::TimeDomain::kSim, "frequency_ghz", ts,
                   freq_hz / 1e9);
  }
}

void Tile::sensor_event(const std::vector<double>& truth,
                        const DieFloors& floors, bool measure) {
  core::DtmCommand cmd{};
  if (policy) {
    if (injector) {
      injector->sample_into(truth, t, sample.sensed_celsius);
    } else {
      sensors.sample_into(truth, sample.sensed_celsius);
    }
    sample.max_sensed = util::Celsius(*std::max_element(
        sample.sensed_celsius.begin(), sample.sensed_celsius.end()));
    sample.time = util::Seconds(t);
    cmd = policy->update(sample);
  }

  // Compose the local command with the die-level floors: the more
  // aggressive actuation wins. In global-DVS mode the tile additionally
  // never runs below the maximum level any tile requested.
  const double prev_gate = gate_fraction;
  const double prev_issue = issue_gate_fraction;
  const bool prev_clock_req = clock_gate_requested;
  gate_fraction =
      std::max(cmd.fetch_gate_fraction, floors.arbiter.fetch_gate_floor);
  core.set_fetch_gate_fraction(gate_fraction);
  issue_gate_fraction = cmd.issue_gate_fraction;
  core.set_issue_gate_fraction(issue_gate_fraction);
  requested_dvs = std::max(cmd.dvs_level, floors.arbiter.dvs_floor);
  const std::size_t level = std::max(requested_dvs, floors.global_dvs);

  clock_gate_requested = cmd.clock_gate;
  if (clock_gate_requested && !clock_gate_on) {
    clock_gate_on = true;
    quantum_end_t = t + env.gate_quantum_s;
  } else if (!clock_gate_requested) {
    clock_gate_on = false;
  }

  bool transition_started = false;
  if (!transition_active && level != dvs_level) {
    if (level >= env.ladder.size()) {
      throw std::out_of_range("policy requested DVS level beyond ladder");
    }
    pending_level = level;
    transition_active = true;
    transition_end_t = t + env.switch_time_s;
    transition_started = true;
    if (measure) ++acc.transitions;
    static const obs::Counter dvs_transitions =
        obs::metrics().counter("dtm.dvs_transitions");
    dvs_transitions.add();
  }

  obs::Tracer& tracer = obs::tracer();
  if (obs::sim_trace_on(tracer, lane)) {
    const double ts = t * obs::kSimUs;
    if (gate_fraction != prev_gate) {
      tracer.counter(lane, obs::TimeDomain::kSim, "fetch_gate_duty", ts,
                     gate_fraction);
    }
    if (issue_gate_fraction != prev_issue) {
      tracer.counter(lane, obs::TimeDomain::kSim, "issue_gate_duty", ts,
                     issue_gate_fraction);
    }
    if (clock_gate_requested != prev_clock_req) {
      tracer.instant(lane, obs::TimeDomain::kSim, "dtm",
                     clock_gate_requested ? "clock_gate_request"
                                          : "clock_gate_release",
                     ts);
    }
    if (transition_started) {
      tracer.instant(lane, obs::TimeDomain::kSim, "dtm",
                     "dvs_transition_start", ts, "from_level",
                     static_cast<double>(dvs_level), "to_level",
                     static_cast<double>(pending_level));
    }
  }

  // Policy engage/disengage edges: "engaged" means any actuation is in
  // effect (throttling, clock gating, or a non-nominal/changing DVS
  // operating point).
  const bool engaged = gate_fraction > 0.0 || issue_gate_fraction > 0.0 ||
                       clock_gate_requested || transition_active ||
                       dvs_level != 0;
  if (engaged != policy_engaged) {
    policy_engaged = engaged;
    if (engaged) {
      static const obs::Counter engagements =
          obs::metrics().counter("dtm.policy_engagements");
      engagements.add();
    }
    if (obs::sim_trace_on(tracer, lane)) {
      tracer.instant(lane, obs::TimeDomain::kSim, "dtm",
                     engaged ? "policy_engage" : "policy_disengage",
                     t * obs::kSimUs, "max_sensed", sample.max_sensed.value());
    }
  }
  next_sensor_t += env.sensor_period_s;
}

void Tile::interval_power(const std::vector<double>& truth, double scale) {
  const arch::ActivityFrame frame = core.take_interval_activity();
  const auto& op = env.ladder.point(dvs_level);
  env.power.block_power_into(frame, op.voltage, op.frequency, truth, watts);
  for (double& w : watts) w *= scale;
}

void Tile::note_tmax(double tmax, double time_s, bool measure) {
  if (measure) acc.max_true = std::max(acc.max_true, tmax);
  obs::Tracer& tracer = obs::tracer();
  if (obs::sim_trace_on(tracer, lane)) {
    tracer.counter(lane, obs::TimeDomain::kSim, "Tmax_celsius",
                   time_s * obs::kSimUs, tmax);
  }
  const bool emergency = tmax > env.cfg.thresholds.emergency.value();
  if (emergency != in_emergency) {
    in_emergency = emergency;
    if (emergency) {
      static const obs::Counter crossings =
          obs::metrics().counter("dtm.emergency_crossings");
      crossings.add();
    }
    if (obs::sim_trace_on(tracer, lane)) {
      tracer.instant(lane, obs::TimeDomain::kSim, "thermal",
                     emergency ? "thermal_emergency_begin"
                               : "thermal_emergency_end",
                     time_s * obs::kSimUs, "max_true", tmax);
    }
  }
}

void steady_state_temperatures(const SharedModel& shared,
                               std::span<const std::unique_ptr<Tile>> tiles,
                               double power_scale, PowerScratch& scratch,
                               thermal::Vector& temps) {
  const thermal::ThermalModel& model = shared.model;
  const util::Celsius ambient = tiles.front()->env.cfg.package.ambient;
  const bool sparse = thermal::use_sparse_step(model.network.size());
  temps.assign(model.network.size(), ambient.value() + 30.0);
  scratch.die_watts.resize(tiles.size() * floorplan::kNumBlocks);
  for (int iter = 0; iter < 10; ++iter) {
    for (std::size_t k = 0; k < tiles.size(); ++k) {
      Tile& tile = *tiles[k];
      const std::size_t base = k * floorplan::kNumBlocks;
      std::copy_n(temps.begin() + static_cast<std::ptrdiff_t>(base),
                  floorplan::kNumBlocks, tile.temps_slice.begin());
      const auto& nominal = tile.env.ladder.point(0);
      tile.env.power.block_power_into(tile.probe_frame, nominal.voltage,
                                      nominal.frequency, tile.temps_slice,
                                      tile.watts);
      for (std::size_t b = 0; b < floorplan::kNumBlocks; ++b) {
        scratch.die_watts[base + b] = tile.watts[b] * power_scale;
      }
    }
    model.expand_power_into(scratch.die_watts, scratch.expanded);
    if (sparse) {
      thermal::steady_state_into(shared.lu_cache->steady_sparse(),
                                 scratch.expanded, ambient, temps,
                                 scratch.work);
    } else {
      thermal::steady_state_into(shared.lu_cache->steady(), scratch.expanded,
                                 ambient, temps);
    }
  }
}

}  // namespace hydra::sim
