// Combined dynamic + leakage power evaluation.
#pragma once

#include <vector>

#include "arch/activity.h"
#include "floorplan/floorplan.h"
#include "power/energy_model.h"
#include "power/leakage.h"
#include "util/units.h"

namespace hydra::power {

/// Evaluates per-block average power for a simulation interval, coupling
/// the activity-driven dynamic model with the temperature-driven leakage
/// model (leakage feeds back on temperature through the thermal solver).
class PowerModel {
 public:
  PowerModel(const floorplan::Floorplan& fp, EnergyModel energy);

  const EnergyModel& energy() const { return energy_; }
  const LeakageModel& leakage() const { return leakage_; }

  /// Per-block power [W] (size kNumBlocks): dynamic power implied by the
  /// activity frame at (voltage, frequency), plus leakage evaluated at
  /// the given per-block temperatures [deg C] (first kNumBlocks entries of
  /// `celsius` are used, so a full thermal-node vector is accepted).
  /// Bulk vectors are raw doubles — the solver-kernel boundary.
  std::vector<double> block_power(const arch::ActivityFrame& frame,
                                  util::Volts voltage, util::Hertz frequency,
                                  const std::vector<double>& celsius) const;

  /// block_power into a caller-provided buffer (resized to kNumBlocks);
  /// the allocation-free hot-path variant.
  void block_power_into(const arch::ActivityFrame& frame, util::Volts voltage,
                        util::Hertz frequency,
                        const std::vector<double>& celsius,
                        std::vector<double>& watts) const;

  /// Total of block_power().
  util::Watts total_power(const arch::ActivityFrame& frame,
                          util::Volts voltage, util::Hertz frequency,
                          const std::vector<double>& celsius) const;

 private:
  EnergyModel energy_;
  LeakageModel leakage_;
};

}  // namespace hydra::power
