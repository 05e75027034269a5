// Dynamic voltage scaling DTM policy (paper Section 4.1).
//
// Three controller flavours:
//  * kBinary    — two comparators: at/above trigger drop to the low
//                 voltage, below it (debounced) return to nominal. The
//                 paper shows this is as good as any multi-step scheme.
//  * kStepped   — a PI controller picks the highest voltage that
//                 regulates temperature, quantised (conservatively, i.e.
//                 downwards) onto the ladder.
//  * kContinuous— the same PI controller on a dense ladder.
// Lowering the voltage is compulsory and immediate; raising it passes a
// low-pass (consecutive-sample debounce) filter so boundary fluttering
// does not thrash the setting — each change may stall the pipeline.
#pragma once

#include "control/low_pass.h"
#include "control/pi_controller.h"
#include "core/dtm_policy.h"
#include "power/voltage_freq.h"
#include "util/fields.h"

namespace hydra::core {

struct DvsPolicyConfig {
  enum class Mode { kBinary, kStepped, kContinuous };
  Mode mode = Mode::kBinary;
  /// PI gains for the stepped/continuous modes, mapping temperature
  /// error onto the [0,1] throttle that interpolates Vnom -> Vlow.
  util::PerCelsius kp{0.12};
  util::PerCelsiusSecond ki{800.0};
  /// Consecutive below-trigger samples required before raising voltage.
  std::size_t raise_filter_samples = 3;
  /// Hysteresis below the trigger for raising voltage.
  util::CelsiusDelta hysteresis{0.3};
};

template <util::FieldsOf<DvsPolicyConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("mode", c.mode);
  f("kp", c.kp);
  f("ki", c.ki);
  f("raise_filter_samples", c.raise_filter_samples);
  f("hysteresis", c.hysteresis);
}

class DvsPolicy final : public DtmPolicy {
 public:
  DvsPolicy(const power::DvsLadder& ladder, DtmThresholds thresholds,
            DvsPolicyConfig cfg);

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return "DVS"; }
  void reset() override;

  std::size_t current_level() const { return level_; }

 private:
  std::size_t controller_level(const ThermalSample& sample);

  power::DvsLadder ladder_;
  DtmThresholds thresholds_;
  DvsPolicyConfig cfg_;
  control::PiController pi_;
  control::ConsecutiveDebounce raise_filter_;
  std::size_t level_ = 0;
  util::Seconds last_time_{-1.0};
};

}  // namespace hydra::core
