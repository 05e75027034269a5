// Global clock gating DTM policy (Pentium-4 style; paper Section 2).
//
// When the trigger is exceeded, the entire processor clock is stopped in
// fixed quanta (2 us on the Pentium 4). The co-simulation System holds
// the clock for one quantum per asserted sample; the policy re-evaluates
// at each sensor sample. Compared with fetch gating this also eliminates
// clock-tree power, but cannot exploit ILP: gated cycles are pure loss.
#pragma once

#include "core/dtm_policy.h"
#include "util/fields.h"

namespace hydra::core {

struct ClockGatingConfig {
  /// Hysteresis below trigger before releasing the clock.
  util::CelsiusDelta hysteresis{0.2};
};

template <util::FieldsOf<ClockGatingConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("hysteresis", c.hysteresis);
}

class ClockGatingPolicy final : public DtmPolicy {
 public:
  ClockGatingPolicy(DtmThresholds thresholds, ClockGatingConfig cfg = {});

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return "ClockGate"; }
  void reset() override { engaged_ = false; }

 private:
  DtmThresholds thresholds_;
  ClockGatingConfig cfg_;
  bool engaged_ = false;
};

}  // namespace hydra::core
