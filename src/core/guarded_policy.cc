#include "core/guarded_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace hydra::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Sim-time DTM event on the current tile's trace lane (no-op when
/// tracing is off or no run is active on this thread).
void guard_event(const char* name, double time_seconds, double sensor) {
  obs::Tracer& tracer = obs::tracer();
  const std::uint32_t lane = obs::SimLaneScope::current();
  if (!obs::sim_trace_on(tracer, lane)) return;
  tracer.instant(lane, obs::TimeDomain::kSim, "guard", name,
                 time_seconds * obs::kSimUs, "sensor", sensor);
}

double median(std::vector<double>& xs) {
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  if (xs.size() % 2 == 1) return xs[mid];
  const double hi = xs[mid];
  const double lo = *std::max_element(xs.begin(), xs.begin() + mid);
  return 0.5 * (lo + hi);
}

}  // namespace

GuardedPolicy::GuardedPolicy(std::unique_ptr<DtmPolicy> inner,
                             DtmThresholds thresholds,
                             std::vector<std::vector<std::size_t>> neighbors,
                             GuardedPolicyConfig cfg)
    : inner_(std::move(inner)),
      thresholds_(thresholds),
      neighbors_(std::move(neighbors)),
      cfg_(cfg) {
  if (neighbors_.empty()) {
    throw std::invalid_argument("guarded policy needs at least one sensor");
  }
  for (const auto& list : neighbors_) {
    for (const std::size_t j : list) {
      if (j >= neighbors_.size()) {
        throw std::invalid_argument("adjacency index out of range");
      }
    }
  }
  if (cfg_.max_plausible <= cfg_.min_plausible ||
      cfg_.max_rate.value() <= 0.0 || cfg_.drift_cap.value() <= 0.0 ||
      cfg_.deviation_alpha <= 0.0 || cfg_.deviation_alpha > 1.0 ||
      cfg_.failsafe_lost_fraction <= 0.0 || cfg_.recovery_samples == 0 ||
      cfg_.suspect_samples == 0) {
    throw std::invalid_argument("bad guarded policy configuration");
  }
  name_ = "Guarded(";
  name_ += inner_ ? inner_->name() : std::string_view("none");
  name_ += ")";
  state_.resize(neighbors_.size());
}

void GuardedPolicy::reset() {
  state_.assign(state_.size(), SensorState{});
  failsafe_ = false;
  failsafe_ok_count_ = 0;
  failsafe_backoff_ = 1;
  last_time_ = util::Seconds(-1.0);
  stats_ = GuardStats{};
  if (inner_) inner_->reset();
}

std::size_t GuardedPolicy::quarantined_count() const {
  std::size_t n = 0;
  for (const SensorState& s : state_) n += s.quarantined ? 1 : 0;
  return n;
}

double GuardedPolicy::neighbor_median(std::size_t i,
                                      const std::vector<double>& raw) const {
  std::vector<double> vals;
  vals.reserve(neighbors_[i].size());
  for (const std::size_t j : neighbors_[i]) {
    if (!state_[j].quarantined && std::isfinite(raw[j])) {
      vals.push_back(raw[j]);
    }
  }
  // A median over fewer than three values is not robust to a single
  // corrupted neighbour (it would drag healthy sensors into quarantine
  // alongside the faulty one); pool the rest of the die instead.
  if (vals.size() < 3) {
    vals.clear();
    for (std::size_t j = 0; j < state_.size(); ++j) {
      if (j != i && !state_[j].quarantined && std::isfinite(raw[j])) {
        vals.push_back(raw[j]);
      }
    }
  }
  if (vals.empty()) return kNan;
  return median(vals);
}

DtmCommand GuardedPolicy::update(const ThermalSample& sample) {
  const std::size_t n = state_.size();
  if (sample.sensed_celsius.size() < n) {
    throw std::invalid_argument("thermal sample smaller than sensor count");
  }
  const std::vector<double>& raw = sample.sensed_celsius;
  const double dt =
      last_time_.value() >= 0.0 ? (sample.time - last_time_).value() : 0.0;
  last_time_ = sample.time;
  stats_.samples += 1;

  // Pass 1: per-sensor checks against the *previous* sample's quarantine
  // state, so voting is order-independent within a sample.
  std::vector<bool> quarantine_next(n);
  std::vector<double> sanitized(n);
  for (std::size_t i = 0; i < n; ++i) {
    SensorState& st = state_[i];
    const double x = raw[i];
    const bool finite = std::isfinite(x);
    const bool in_range = finite && x >= cfg_.min_plausible.value() &&
                          x <= cfg_.max_plausible.value();

    const double med = neighbor_median(i, raw);
    const double dev = (finite && std::isfinite(med)) ? x - med : kNan;

    if (!st.quarantined) {
      bool suspect = false;
      // Rate-of-change limit (skipped on the first sample).
      if (in_range && st.have_last && dt > 0.0) {
        const double max_step =
            cfg_.max_rate.value() * dt + cfg_.noise_margin.value();
        if (std::abs(x - st.last_raw) > max_step) suspect = true;
      }
      // Frozen-reading detector: with noise and quantisation enabled, a
      // healthy sensor virtually never repeats the exact value this long.
      if (cfg_.frozen_samples > 0 && in_range && st.have_last &&
          x == st.last_raw) {
        st.frozen_count += 1;
        if (st.frozen_count >= cfg_.frozen_samples) suspect = true;
      } else {
        st.frozen_count = 0;
      }
      // Cross-sensor vote: learn the reference deviation, then flag
      // readings whose smoothed deviation leaves the reference band.
      if (std::isfinite(dev)) {
        if (!st.ref_ready) {
          st.ref_dev += dev;
          st.ref_count += 1;
          if (st.ref_count >= cfg_.learn_samples) {
            st.ref_dev /= static_cast<double>(st.ref_count);
            st.ref_ready = true;
          }
        } else {
          if (!st.smoothed_primed) {
            st.smoothed_dev = dev;
            st.smoothed_primed = true;
          } else {
            st.smoothed_dev +=
                cfg_.deviation_alpha * (dev - st.smoothed_dev);
          }
          if (std::abs(st.smoothed_dev - st.ref_dev) >
              cfg_.drift_cap.value()) {
            suspect = true;
          }
        }
      }

      if (!in_range) {
        quarantine_next[i] = true;  // hard fault: no debounce
      } else if (suspect) {
        st.suspect_count += 1;
        quarantine_next[i] = st.suspect_count >= cfg_.suspect_samples;
      } else {
        st.suspect_count = 0;
        quarantine_next[i] = false;
      }
    } else {
      quarantine_next[i] = true;  // release decided below, estimate first
    }

    st.last_raw = x;
    st.have_last = finite;
  }

  // Pass 2: substitution and recovery for quarantined sensors.
  std::size_t quarantined = 0;
  bool no_estimate = false;
  for (std::size_t i = 0; i < n; ++i) {
    SensorState& st = state_[i];
    if (!quarantine_next[i]) {
      sanitized[i] = raw[i];
      continue;
    }
    if (!st.quarantined) {
      st.quarantined = true;
      st.recovery_count = 0;
      stats_.quarantine_entries += 1;
      static const obs::Counter entries =
          obs::metrics().counter("guard.quarantine_entries");
      entries.add();
      guard_event("quarantine_enter", sample.time.value(),
                  static_cast<double>(i));
    }
    const double med = neighbor_median(i, raw);
    if (std::isfinite(med)) {
      const double estimate = med + st.ref_dev;
      sanitized[i] = estimate + cfg_.substitution_margin.value();
      // Recovery: the raw reading must agree with the estimate for a
      // debounced run of samples; each relapse doubled the requirement.
      if (std::isfinite(raw[i]) &&
          std::abs(raw[i] - estimate) <= cfg_.recovery_band.value()) {
        st.recovery_count += 1;
        if (st.recovery_count >= cfg_.recovery_samples * st.backoff) {
          st.quarantined = false;
          st.suspect_count = 0;
          st.frozen_count = 0;
          st.smoothed_primed = false;
          st.backoff = std::min(st.backoff * 2, cfg_.backoff_max_factor);
          sanitized[i] = raw[i];
          guard_event("quarantine_exit", sample.time.value(),
                      static_cast<double>(i));
        }
      } else {
        st.recovery_count = 0;
      }
    } else {
      // Nothing left to vote with: force the inner policy to its maximal
      // response and let the watchdog engage below.
      sanitized[i] = thresholds_.emergency.value() + 1.0;
      no_estimate = true;
    }
    if (st.quarantined) {
      quarantined += 1;
      stats_.rejected_readings += 1;
    }
  }
  stats_.max_quarantined = std::max(stats_.max_quarantined, quarantined);

  // Watchdog: too many lost sensors -> fail-safe global clock gating.
  const bool overwhelmed =
      no_estimate ||
      static_cast<double>(quarantined) >
          cfg_.failsafe_lost_fraction * static_cast<double>(n);
  if (overwhelmed) {
    if (!failsafe_) {
      failsafe_ = true;
      stats_.failsafe_entries += 1;
      static const obs::Counter entries =
          obs::metrics().counter("guard.failsafe_entries");
      entries.add();
      guard_event("failsafe_engage", sample.time.value(),
                  static_cast<double>(quarantined));
    }
    failsafe_ok_count_ = 0;
  } else if (failsafe_) {
    failsafe_ok_count_ += 1;
    if (failsafe_ok_count_ >=
        cfg_.failsafe_release_samples * failsafe_backoff_) {
      failsafe_ = false;
      failsafe_backoff_ =
          std::min(failsafe_backoff_ * 2, cfg_.backoff_max_factor);
      guard_event("failsafe_release", sample.time.value(),
                  static_cast<double>(quarantined));
    }
  }
  if (failsafe_) stats_.failsafe_samples += 1;

  // Feed the inner policy the sanitised view (pessimism bias re-budgets
  // the margin consumed by sub-threshold faults).
  ThermalSample clean;
  clean.sensed_celsius = std::move(sanitized);
  for (double& v : clean.sensed_celsius) v += cfg_.pessimism_bias.value();
  clean.max_sensed = util::Celsius(*std::max_element(
      clean.sensed_celsius.begin(), clean.sensed_celsius.end()));
  clean.time = sample.time;

  DtmCommand cmd;
  if (inner_) cmd = inner_->update(clean);
  if (failsafe_) cmd.clock_gate = true;
  return cmd;
}

}  // namespace hydra::core
