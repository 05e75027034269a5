// Local toggling DTM (paper Section 2, from Skadron et al. [17]).
//
// Instead of gating instruction *fetch*, local toggling slows or stops
// the processor domain in thermal stress — here modelled as duty-cycled
// gating of the issue stage (the execution-core domain containing the
// hottest blocks) while the front end keeps running. The paper reports
// that "local toggling confers little advantage over fetch gating", a
// claim regenerated by bench/abl_local_toggle.
#pragma once

#include "control/pi_controller.h"
#include "core/dtm_policy.h"
#include "util/fields.h"

namespace hydra::core {

struct LocalToggleConfig {
  /// Integral gain (gate fraction accumulated per deg C of error per s).
  util::PerCelsiusSecond ki{600.0};
  util::PerCelsius kp{0.0};
  /// Upper bound on the issue-gating fraction.
  double max_gate_fraction = 0.75;
};

template <util::FieldsOf<LocalToggleConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("ki", c.ki);
  f("kp", c.kp);
  f("max_gate_fraction", c.max_gate_fraction);
}

class LocalTogglePolicy final : public DtmPolicy {
 public:
  LocalTogglePolicy(DtmThresholds thresholds, LocalToggleConfig cfg);

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return "LocalToggle"; }
  void reset() override;

  double current_gate_fraction() const { return gate_; }

 private:
  DtmThresholds thresholds_;
  LocalToggleConfig cfg_;
  control::PiController controller_;
  double gate_ = 0.0;
  util::Seconds last_time_{-1.0};
};

}  // namespace hydra::core
