// Proactive (predictive) hybrid DTM — an implementation of the paper's
// future-work direction ("techniques for predicting thermal stress and
// responding proactively, rather than waiting for actual thermal stress
// and responding reactively, may further reduce the overhead of DTM",
// citing Srinivasan & Adve's predictive DTM).
//
// The policy extends Hyb with a linear temperature predictor: each
// sensor sample updates a low-passed temperature slope, and the policy
// acts on the temperature *extrapolated* `horizon` seconds ahead instead
// of the current reading. Rising temperatures therefore engage fetch
// gating (and, if the rise is steep, DVS) before the trigger is crossed,
// trimming the overshoot that a reactive policy must leave margin for;
// falling temperatures release earlier for the same reason.
#pragma once

#include "control/low_pass.h"
#include "core/hybrid_policy.h"
#include "util/fields.h"

namespace hydra::core {

struct ProactiveConfig {
  HybridConfig hybrid{};
  /// Prediction horizon (paper-time; scale with time acceleration).
  util::Seconds horizon{300e-6};
  /// Smoothing factor for the slope estimate (per sample).
  double slope_filter_alpha = 0.25;
};

template <util::FieldsOf<ProactiveConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("hybrid", c.hybrid);
  f("horizon", c.horizon);
  f("slope_filter_alpha", c.slope_filter_alpha);
}

/// Hyb with slope-based temperature prediction.
class ProactiveHybridPolicy final : public DtmPolicy {
 public:
  ProactiveHybridPolicy(const power::DvsLadder& ladder,
                        DtmThresholds thresholds, ProactiveConfig cfg);

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return "Pro-Hyb"; }
  void reset() override;

  /// Last smoothed slope estimate, for diagnostics.
  util::CelsiusPerSecond slope() const {
    return util::CelsiusPerSecond(slope_.value());
  }

 private:
  ProactiveConfig cfg_;
  HybridPolicy inner_;
  control::FirstOrderLowPass slope_;
  util::Celsius last_max_{0.0};
  util::Seconds last_time_{-1.0};
};

}  // namespace hydra::core
