// Thermal package parameters (paper Section 3).
#pragma once

#include "util/fields.h"
#include "util/units.h"

namespace hydra::thermal {

/// Material and geometry constants of the die + package stack. Defaults
/// correspond to the paper's setup: 0.5 mm die, copper spreader and heat
/// sink as in the HotSpot work, and a low-cost 1.0 K/W sink-to-air
/// convection resistance chosen to push hot SPEC benchmarks into thermal
/// stress. Geometry carries an explicit `_m` suffix; conductivities k_*
/// are [W/(m K)] and volumetric heat capacities c_* are [J/(m^3 K)] —
/// they feed raw resistance/capacitance formulas in package_builder.cc,
/// which wraps the results in strong types at the RcNetwork boundary.
struct Package {
  // Silicon die.
  double die_thickness_m = 0.5e-3;
  double k_silicon = 150.0;  ///< [W/(m K)]
  double c_silicon = 1.75e6;  ///< [J/(m^3 K)]

  // Thermal interface material between die and spreader.
  double tim_thickness_m = 20e-6;
  double k_tim = 4.0;  ///< [W/(m K)]

  // Copper heat spreader.
  double spreader_side_m = 3.0e-2;
  double spreader_thickness_m = 1.0e-3;
  double k_copper = 400.0;  ///< [W/(m K)]
  double c_copper = 3.55e6;  ///< [J/(m^3 K)]

  // Heat sink (aluminium base modelled; fins folded into r_convec).
  double sink_side_m = 6.0e-2;
  double sink_thickness_m = 6.9e-3;
  double k_sink = 240.0;  ///< [W/(m K)]
  double c_sink = 2.42e6;  ///< [J/(m^3 K)]

  /// Equivalent sink-to-air convection resistance. 1.0 K/W is the
  /// paper's low-cost package; HotSpot's default desktop value is 0.8.
  util::KelvinPerWatt r_convec{1.0};

  /// Ambient (inside-case) air temperature.
  util::Celsius ambient{45.0};
};

template <util::FieldsOf<Package> Self, class F>
void visit_fields(Self& p, F&& f) {
  f("die_thickness_m", p.die_thickness_m);
  f("k_silicon", p.k_silicon);
  f("c_silicon", p.c_silicon);
  f("tim_thickness_m", p.tim_thickness_m);
  f("k_tim", p.k_tim);
  f("spreader_side_m", p.spreader_side_m);
  f("spreader_thickness_m", p.spreader_thickness_m);
  f("k_copper", p.k_copper);
  f("c_copper", p.c_copper);
  f("sink_side_m", p.sink_side_m);
  f("sink_thickness_m", p.sink_thickness_m);
  f("k_sink", p.k_sink);
  f("c_sink", p.c_sink);
  f("r_convec", p.r_convec);
  f("ambient", p.ambient);
}

}  // namespace hydra::thermal
