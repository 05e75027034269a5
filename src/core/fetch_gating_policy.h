// Fetch-gating DTM policy (paper Section 4.1).
//
// Gating fetch at a duty cycle reduces pipeline activity and hence power
// density; mild gating is hidden by ILP. The duty-cycle choice is a
// feedback-control problem for which the paper uses an integral
// controller (the implementing hardware is a few registers, an adder and
// a multiplier). A fixed-duty mode is also provided: it engages a
// constant gating fraction whenever the trigger is exceeded — used
// stand-alone for the Figure 3b sweep and as the ILP half of the
// controller-free Hyb policy.
#pragma once

#include "control/pi_controller.h"
#include "core/dtm_policy.h"
#include "util/fields.h"

namespace hydra::core {

struct FetchGatingConfig {
  enum class Mode { kIntegral, kFixed };
  Mode mode = Mode::kIntegral;
  /// Integral gain (gate fraction accumulated per deg C of error per s).
  util::PerCelsiusSecond ki{600.0};
  /// Proportional gain (0 for the paper's pure integral controller).
  util::PerCelsius kp{0.0};
  /// Upper bound on the gating fraction. 0.75 (gate three of every four
  /// cycles — "duty cycle 0.33" in the paper's notation was the analogous
  /// harshest setting) is the level that eliminates all thermal
  /// violations stand-alone in this calibration.
  double max_gate_fraction = 0.75;
  /// Fixed mode: the gating fraction applied while above trigger.
  double fixed_gate_fraction = 0.75;
};

template <util::FieldsOf<FetchGatingConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("mode", c.mode);
  f("ki", c.ki);
  f("kp", c.kp);
  f("max_gate_fraction", c.max_gate_fraction);
  f("fixed_gate_fraction", c.fixed_gate_fraction);
}

class FetchGatingPolicy final : public DtmPolicy {
 public:
  FetchGatingPolicy(DtmThresholds thresholds, FetchGatingConfig cfg);

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override {
    return cfg_.mode == FetchGatingConfig::Mode::kIntegral ? "FG" : "FG-fixed";
  }
  void reset() override;

  double current_gate_fraction() const { return gate_; }

 private:
  DtmThresholds thresholds_;
  FetchGatingConfig cfg_;
  control::PiController controller_;
  double gate_ = 0.0;
  util::Seconds last_time_{-1.0};
};

}  // namespace hydra::core
