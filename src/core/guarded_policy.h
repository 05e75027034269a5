// Fail-safe DTM supervision: a decorator that makes any DtmPolicy
// tolerate sensor faults.
//
// Every policy in this library trusts ThermalSample blindly, yet the
// paper's safety argument only covers sensors that are noisy and offset
// (Section 3) — a stuck-at-low or dead sensor on the hottest block
// silently disables thermal protection. GuardedPolicy wraps an inner
// policy with the supervision layer a production thermal stack needs:
//
//  * Per-sensor plausibility filtering: NaN/range rejection, a
//    rate-of-change limit, a frozen-reading detector, and cross-sensor
//    voting — each sensor's deviation from the median of its floorplan
//    neighbours is learned during an initial window and a reading whose
//    deviation leaves that reference band is implausible (this catches
//    stuck-at values inside the plausible range and slow drift).
//  * Quarantine + substitution: an implausible sensor is quarantined and
//    its reading replaced by the neighbour median plus its learned
//    deviation plus a conservative margin, so the inner policy keeps
//    regulating the hidden block from the evidence of its neighbours.
//  * Debounced recovery with exponential backoff: a quarantined sensor
//    must agree with its substitute for a run of samples before it is
//    trusted again, and every relapse doubles that requirement.
//  * Watchdog fail-safe: when too many sensors are quarantined at once
//    (or none are usable at all), the supervisor overrides the inner
//    policy with global clock gating — the strongest actuator — until
//    enough sensors return, with its own debounce and backoff.
//
// Faults below the detection threshold (drift inside the reference band)
// can make a sensor read up to ~drift_cap too low; the supervisor
// re-budgets the paper's sensor-error margin for this by biasing all
// sanitised readings up by `pessimism_bias`. This costs a small
// amount of extra throttling in fault-free runs — the price of
// supervision, reported by bench/ext_fault_campaign.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dtm_policy.h"
#include "util/fields.h"

namespace hydra::core {

struct GuardedPolicyConfig {
  // --- Plausibility checks ---
  util::Celsius min_plausible{5.0};
  util::Celsius max_plausible{150.0};
  /// Largest believable |dT/dt|. Specified in paper-time like controller
  /// gains; multiply by time_scale under time acceleration.
  util::CelsiusPerSecond max_rate{5.0e3};
  /// Per-sample step allowance on top of the rate limit, covering sensor
  /// noise + quantisation.
  util::CelsiusDelta noise_margin{3.0};
  /// Consecutive bit-identical readings before a sensor counts as frozen;
  /// 0 disables (use 0 when sensor noise is disabled, otherwise a steady
  /// temperature looks frozen).
  std::size_t frozen_samples = 16;
  /// Samples of neighbour-median deviation averaged into the per-sensor
  /// reference before the voting check arms.
  std::size_t learn_samples = 64;
  /// EMA coefficient smoothing the deviation before comparison.
  double deviation_alpha = 0.25;
  /// Quarantine when the smoothed deviation leaves the reference by more
  /// than this. Catches in-range stuck values and drift.
  util::CelsiusDelta drift_cap{1.5};
  /// Consecutive suspect samples before quarantine (NaN / out-of-range
  /// quarantine immediately).
  std::size_t suspect_samples = 2;

  // --- Substitution / recovery ---
  /// Added on top of the neighbour-derived estimate for a quarantined
  /// sensor, erring hot.
  util::CelsiusDelta substitution_margin{1.0};
  /// A quarantined sensor must agree with its estimate within this band
  /// to make recovery progress.
  util::CelsiusDelta recovery_band{2.0};
  /// Consecutive agreeing samples required for release (base value).
  std::size_t recovery_samples = 24;
  /// Each relapse doubles the recovery requirement up to this factor.
  std::size_t backoff_max_factor = 64;

  // --- Watchdog fail-safe ---
  /// Engage fail-safe clock gating when more than this fraction of
  /// sensors is quarantined.
  double failsafe_lost_fraction = 1.0 / 3.0;
  /// Consecutive healthy samples before fail-safe releases (base value;
  /// doubles per re-engagement up to backoff_max_factor).
  std::size_t failsafe_release_samples = 8;

  /// Upward bias applied to every sanitised reading; margin for faults
  /// below the detection threshold (see file comment).
  util::CelsiusDelta pessimism_bias{0.75};
};

template <util::FieldsOf<GuardedPolicyConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("min_plausible", c.min_plausible);
  f("max_plausible", c.max_plausible);
  f("max_rate", c.max_rate);
  f("noise_margin", c.noise_margin);
  f("frozen_samples", c.frozen_samples);
  f("learn_samples", c.learn_samples);
  f("deviation_alpha", c.deviation_alpha);
  f("drift_cap", c.drift_cap);
  f("suspect_samples", c.suspect_samples);
  f("substitution_margin", c.substitution_margin);
  f("recovery_band", c.recovery_band);
  f("recovery_samples", c.recovery_samples);
  f("backoff_max_factor", c.backoff_max_factor);
  f("failsafe_lost_fraction", c.failsafe_lost_fraction);
  f("failsafe_release_samples", c.failsafe_release_samples);
  f("pessimism_bias", c.pessimism_bias);
}

/// Counters describing what the supervisor did during a run.
struct GuardStats {
  std::uint64_t samples = 0;             ///< sensor events processed
  std::uint64_t rejected_readings = 0;   ///< sensor-samples substituted
  std::uint64_t quarantine_entries = 0;  ///< healthy->quarantined edges
  std::uint64_t failsafe_samples = 0;    ///< samples spent in fail-safe
  std::uint64_t failsafe_entries = 0;
  std::size_t max_quarantined = 0;       ///< peak simultaneous quarantines
};

class GuardedPolicy final : public DtmPolicy {
 public:
  /// `inner` may be null: the guard then acts as a pure fail-safe
  /// supervisor (no DTM until the watchdog trips). `neighbors[i]` lists
  /// the sensors adjacent to sensor i on the floorplan (see
  /// floorplan::Floorplan::adjacencies); indices must be < neighbors
  /// size. Throws std::invalid_argument on malformed adjacency or config.
  GuardedPolicy(std::unique_ptr<DtmPolicy> inner, DtmThresholds thresholds,
                std::vector<std::vector<std::size_t>> neighbors,
                GuardedPolicyConfig cfg = {});

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return name_; }
  void reset() override;

  bool failsafe_engaged() const { return failsafe_; }
  std::size_t quarantined_count() const;
  bool quarantined(std::size_t i) const { return state_[i].quarantined; }
  const GuardStats& stats() const { return stats_; }
  const DtmPolicy* inner() const { return inner_.get(); }

 private:
  struct SensorState {
    bool quarantined = false;
    std::size_t suspect_count = 0;
    std::size_t frozen_count = 0;
    double last_raw = 0.0;
    bool have_last = false;
    double ref_dev = 0.0;  ///< learned deviation from neighbour median
    std::size_t ref_count = 0;
    bool ref_ready = false;
    double smoothed_dev = 0.0;
    bool smoothed_primed = false;
    std::size_t recovery_count = 0;
    std::size_t backoff = 1;  ///< recovery-requirement multiplier
  };

  /// Median of the raw readings of `i`'s usable neighbours (finite, not
  /// quarantined at the previous sample). With fewer than three usable
  /// neighbours the median is not robust to a single corrupted one, so
  /// it falls back to the median over all other usable sensors; nan when
  /// none exist.
  double neighbor_median(std::size_t i,
                         const std::vector<double>& raw) const;

  std::unique_ptr<DtmPolicy> inner_;
  DtmThresholds thresholds_;
  std::vector<std::vector<std::size_t>> neighbors_;
  GuardedPolicyConfig cfg_;
  std::string name_;

  std::vector<SensorState> state_;
  bool failsafe_ = false;
  std::size_t failsafe_ok_count_ = 0;
  std::size_t failsafe_backoff_ = 1;
  util::Seconds last_time_{-1.0};
  GuardStats stats_;
};

}  // namespace hydra::core
