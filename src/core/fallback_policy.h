// DEETM-style fallback hierarchy (Huang et al., Micro-33) — the class of
// techniques the paper explicitly contrasts hybrids against:
//
//   "Fallback techniques use a DTM technique until its ability to
//    control temperature is exhausted and an additional or alternative
//    technique is needed to prevent thermal violations. In contrast, the
//    hybrid technique we propose uses an ILP technique only while doing
//    so is optimal and then switches to DVS. As we show, this crossover
//    point is well before the ILP technique's cooling capability has
//    been exhausted."
//
// Implemented here so the contrast is measurable (bench/abl_fallback):
// fetch gating ramps all the way to its *cooling* limit (the maximum
// gating fraction) and DVS is added only when, at that limit, the
// temperature still approaches the emergency threshold.
#pragma once

#include "control/low_pass.h"
#include "control/pi_controller.h"
#include "core/dtm_policy.h"
#include "power/voltage_freq.h"
#include "util/fields.h"

namespace hydra::core {

struct FallbackConfig {
  /// Integral gain of the fetch-gating stage.
  util::PerCelsiusSecond ki{600.0};
  util::PerCelsius kp{0.0};
  /// The exhaustion point of the ILP technique: gating beyond this has
  /// no additional cooling ability worth its cost.
  double max_gate_fraction = 0.75;
  /// DVS engages only when gating is saturated AND the sensed
  /// temperature is within this margin of the emergency threshold.
  util::CelsiusDelta emergency_margin{1.0};
  /// Debounced release of the DVS stage.
  std::size_t release_filter_samples = 3;
  util::CelsiusDelta hysteresis{0.3};
};

template <util::FieldsOf<FallbackConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("ki", c.ki);
  f("kp", c.kp);
  f("max_gate_fraction", c.max_gate_fraction);
  f("emergency_margin", c.emergency_margin);
  f("release_filter_samples", c.release_filter_samples);
  f("hysteresis", c.hysteresis);
}

/// Escalate fetch gating to exhaustion; add DVS only in extremis.
class FallbackPolicy final : public DtmPolicy {
 public:
  FallbackPolicy(const power::DvsLadder& ladder, DtmThresholds thresholds,
                 FallbackConfig cfg);

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return "Fallback"; }
  void reset() override;

  bool dvs_engaged() const { return dvs_engaged_; }

 private:
  power::DvsLadder ladder_;
  DtmThresholds thresholds_;
  FallbackConfig cfg_;
  control::PiController controller_;
  control::ConsecutiveDebounce release_filter_;
  bool dvs_engaged_ = false;
  util::Seconds last_time_{-1.0};
};

}  // namespace hydra::core
