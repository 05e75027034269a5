// Temperature-dependent leakage model.
//
// The paper updates Wattch's leakage model so leakage is a function of
// temperature using ITRS 0.13 um projections. We use the standard
// empirical exponential form
//     P_leak = rho * A * (V / Vnom) * exp(beta * (T - T0))
// where rho is an areal leakage density at the reference temperature T0.
// beta = 0.017 / K doubles leakage roughly every 40 K, consistent with
// subthreshold behaviour at the 0.13 um node. SRAM-dominated blocks use a
// lower density than hot logic.
#pragma once

#include <array>
#include <vector>

#include "floorplan/block.h"
#include "floorplan/floorplan.h"
#include "util/units.h"

namespace hydra::power {

class LeakageModel {
 public:
  /// `fp` supplies per-block areas; densities use defaults below.
  explicit LeakageModel(const floorplan::Floorplan& fp);

  /// Leakage power of block `id` at temperature `celsius` [deg C] (raw
  /// double: values come straight out of the bulk thermal-node vector)
  /// and supply `voltage`.
  util::Watts power(floorplan::BlockId id, double celsius,
                    util::Volts voltage) const;

  /// Batch evaluation for the thermal-step hot path: writes the leakage
  /// of every block into `out[0..kNumBlocks)` (`out` must already hold
  /// at least kNumBlocks entries; entries beyond are untouched). The
  /// voltage-scale division and the beta/T0 loads are hoisted out of the
  /// per-block std::exp chain; each element matches power() bit for bit.
  void power_into(const std::vector<double>& celsius, util::Volts voltage,
                  std::vector<double>& out) const;

  util::Volts v_nominal() const { return util::Volts(v_nominal_); }

 private:
  std::array<double, floorplan::kNumBlocks> base_watts_{};  ///< at T0, Vnom
  double t0_celsius_ = 60.0;
  double beta_per_kelvin_ = 0.017;
  double v_nominal_ = 1.3;
};

}  // namespace hydra::power
