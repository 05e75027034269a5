#include "core/hybrid_policy.h"

#include <algorithm>

#include "obs/obs.h"

namespace hydra::core {
namespace {

/// Escalation/release edge on the current tile's sim lane.
void hybrid_event(const char* name, double time_seconds, double from,
                  double to) {
  obs::Tracer& tracer = obs::tracer();
  const std::uint32_t lane = obs::SimLaneScope::current();
  if (!obs::sim_trace_on(tracer, lane)) return;
  tracer.instant(lane, obs::TimeDomain::kSim, "policy", name,
                 time_seconds * obs::kSimUs, "from", from, "to", to);
}

}  // namespace

PiHybridPolicy::PiHybridPolicy(const power::DvsLadder& ladder,
                               DtmThresholds thresholds, HybridConfig cfg)
    : ladder_(ladder),
      thresholds_(thresholds),
      cfg_(cfg),
      // The controller's output range extends past the crossover so
      // saturation (anti-windup) cannot mask the crossover signal; the
      // applied gate fraction is clamped to the crossover separately.
      pi_(cfg.kp, cfg.ki, 0.0, 1.0),
      release_filter_(cfg.release_filter_samples) {}

void PiHybridPolicy::reset() {
  pi_.reset();
  release_filter_.reset();
  dvs_engaged_ = false;
  last_time_ = util::Seconds(-1.0);
}

DtmCommand PiHybridPolicy::update(const ThermalSample& sample) {
  const util::Seconds dt =
      last_time_.value() < 0.0
          ? util::Seconds(1e-4)
          : std::max(util::Seconds(1e-9), sample.time - last_time_);
  last_time_ = sample.time;
  const util::CelsiusDelta error = sample.max_sensed - thresholds_.trigger;

  DtmCommand cmd;
  if (!dvs_engaged_) {
    const double demand = pi_.update(error, dt);
    const double gate = std::min(demand, cfg_.crossover_gate_fraction);
    // Crossover: the controller demands more gating than ILP can hide,
    // so DVS's cubic power reduction is now the cheaper response.
    if (demand >
        cfg_.crossover_gate_fraction * (1.0 + cfg_.crossover_margin)) {
      dvs_engaged_ = true;
      release_filter_.reset();
      cmd.fetch_gate_fraction = 0.0;
      cmd.dvs_level = ladder_.lowest_level();
      static const obs::Counter escalations =
          obs::metrics().counter("policy.dvs_escalations");
      escalations.add();
      hybrid_event("pi_hybrid_dvs_engage", sample.time.value(), demand,
                   static_cast<double>(cmd.dvs_level));
    } else {
      cmd.fetch_gate_fraction = gate;
    }
  } else {
    const bool cool =
        sample.max_sensed < thresholds_.trigger - cfg_.hysteresis;
    if (release_filter_.update(cool)) {
      // Hand control back to the ILP technique, warm-starting the
      // integrator just below the crossover so regulation resumes
      // smoothly instead of re-triggering DVS on the next sample.
      dvs_engaged_ = false;
      pi_.set_integrator(0.8 * cfg_.crossover_gate_fraction);
      release_filter_.reset();
      cmd.fetch_gate_fraction = pi_.update(error, dt);
      hybrid_event("pi_hybrid_dvs_release", sample.time.value(),
                   sample.max_sensed.value(), cmd.fetch_gate_fraction);
    } else {
      cmd.dvs_level = ladder_.lowest_level();
    }
  }
  return cmd;
}

HybridPolicy::HybridPolicy(const power::DvsLadder& ladder,
                           DtmThresholds thresholds, HybridConfig cfg)
    : ladder_(ladder),
      thresholds_(thresholds),
      cfg_(cfg),
      release_filter_(cfg.release_filter_samples),
      escalate_filter_(cfg.escalate_filter_samples) {}

void HybridPolicy::reset() {
  release_filter_.reset();
  escalate_filter_.reset();
  level_ = 0;
}

DtmCommand HybridPolicy::update(const ThermalSample& sample) {
  const int prev_level = level_;
  const util::Celsius t1 = thresholds_.trigger;
  const util::Celsius t2 = thresholds_.trigger + cfg_.dvs_threshold_offset;

  // Engaging fetch gating is compulsory and immediate; the FG -> DVS
  // escalation is debounced against sensor-noise spikes. While the
  // debounce is pending, at least fetch gating stays engaged (and an
  // already-engaged DVS is not released, since above t2 the release
  // condition below cannot hold anyway).
  int desired;
  if (sample.max_sensed >= t2) {
    desired = escalate_filter_.update(true) ? 2 : std::max(level_, 1);
  } else {
    escalate_filter_.reset();
    desired = sample.max_sensed >= t1 ? 1 : 0;
  }

  if (desired > level_) {
    level_ = desired;
    release_filter_.reset();
  } else if (desired < level_) {
    if (level_ == 2) {
      // Leaving DVS costs a voltage switch, so it passes the debounce
      // filter (and drops to fetch gating first, never straight to
      // unthrottled).
      const bool cool = sample.max_sensed < t2 - cfg_.hysteresis;
      if (release_filter_.update(cool)) {
        level_ = 1;
        release_filter_.reset();
      }
    } else {
      // Fetch gating switches for free: the comparator acts directly.
      level_ = desired;
    }
  } else {
    release_filter_.reset();
  }

  if (level_ != prev_level) {
    if (level_ == 2) {
      static const obs::Counter escalations =
          obs::metrics().counter("policy.dvs_escalations");
      escalations.add();
    }
    hybrid_event("hybrid_level_change", sample.time.value(),
                 static_cast<double>(prev_level),
                 static_cast<double>(level_));
  }

  DtmCommand cmd;
  if (level_ == 1) {
    cmd.fetch_gate_fraction = cfg_.crossover_gate_fraction;
  } else if (level_ == 2) {
    cmd.dvs_level = ladder_.lowest_level();
  }
  return cmd;
}

}  // namespace hydra::core
