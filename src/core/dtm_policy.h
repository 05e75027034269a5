// Dynamic thermal management policy interface.
//
// A policy runs at the sensor sampling rate (10 kHz in the paper): it
// receives the latest sensor readings and returns the actuation command —
// a fetch-gating duty fraction, a DVS ladder level, and/or a global
// clock-gate request. The co-simulation System applies the command,
// modelling DVS switching overhead and clock-gating quanta.
#pragma once

#include <string_view>
#include <vector>

#include "util/fields.h"
#include "util/units.h"

namespace hydra::core {

/// DTM temperature thresholds (paper Section 3): DTM engages at the
/// trigger; the chip must never exceed the emergency threshold.
/// 81.8 / 85 with the paper's sensor error budget (2 deg offset + 1 deg
/// precision -> 82 practical limit, trigger just below it).
struct DtmThresholds {
  util::Celsius trigger{81.8};
  util::Celsius emergency{85.0};
};

template <util::FieldsOf<DtmThresholds> Self, class F>
void visit_fields(Self& t, F&& f) {
  f("trigger", t.trigger);
  f("emergency", t.emergency);
}

/// One sensor sampling instant.
struct ThermalSample {
  std::vector<double> sensed_celsius;  ///< per-block readings [deg C]
  util::Celsius max_sensed{};          ///< max over sensed_celsius
  util::Seconds time{};                ///< simulation time of the sample
};

/// Actuation requested by a policy.
struct DtmCommand {
  double fetch_gate_fraction = 0.0;  ///< gate fetch on this cycle fraction
  double issue_gate_fraction = 0.0;  ///< gate issue ("local toggling")
  std::size_t dvs_level = 0;         ///< DVS ladder index (0 = nominal)
  bool clock_gate = false;           ///< stop the global clock this quantum
};

class DtmPolicy {
 public:
  virtual ~DtmPolicy() = default;

  /// Compute the actuation for the current sample. Called once per
  /// sensor period; `sample.time` is monotone.
  virtual DtmCommand update(const ThermalSample& sample) = 0;

  virtual std::string_view name() const = 0;

  /// Return to the power-on state (used between experiment repetitions).
  virtual void reset() = 0;
};

}  // namespace hydra::core
