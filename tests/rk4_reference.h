// Explicit 4th-order Runge-Kutta stepper for thermal RC networks: the
// independent integrator the backward-Euler solvers are cross-validated
// against. It lives in tests/ because no simulation steps with it; it
// holds the dense G it needs, which the production solvers never form.
#pragma once

#include <cstddef>

#include "thermal/linalg.h"
#include "thermal/rc_network.h"
#include "util/units.h"

namespace hydra::thermal {

class Rk4Reference {
 public:
  Rk4Reference(const RcNetwork& net, util::Celsius ambient)
      : net_(&net),
        ambient_(ambient.value()),
        g_(net.conductance_matrix()),
        celsius_(net.size(), ambient.value()),
        rise_(net.size()),
        tmp_(net.size()),
        flow_(net.size()),
        k1_(net.size()),
        k2_(net.size()),
        k3_(net.size()),
        k4_(net.size()) {}

  /// Advance by `dt` with constant per-node power [W].
  void step(const Vector& power, util::Seconds dt) {
    const double h = dt.value();
    const std::size_t n = net_->size();
    for (std::size_t i = 0; i < n; ++i) rise_[i] = celsius_[i] - ambient_;

    derivative_into(rise_, power, k1_);
    for (std::size_t i = 0; i < n; ++i) tmp_[i] = rise_[i] + h / 2.0 * k1_[i];
    derivative_into(tmp_, power, k2_);
    for (std::size_t i = 0; i < n; ++i) tmp_[i] = rise_[i] + h / 2.0 * k2_[i];
    derivative_into(tmp_, power, k3_);
    for (std::size_t i = 0; i < n; ++i) tmp_[i] = rise_[i] + h * k3_[i];
    derivative_into(tmp_, power, k4_);

    for (std::size_t i = 0; i < n; ++i) {
      rise_[i] += h / 6.0 * (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
      celsius_[i] = ambient_ + rise_[i];
    }
  }

  util::Celsius temperature(std::size_t node) const {
    return util::Celsius(celsius_[node]);
  }

 private:
  // C d(rise)/dt = P - G rise.
  void derivative_into(const Vector& rise, const Vector& power, Vector& d) {
    g_.multiply_into(rise, flow_);
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] = (power[i] - flow_[i]) / net_->capacitance(i).value();
    }
  }

  const RcNetwork* net_;
  double ambient_;
  Matrix g_;
  Vector celsius_;
  Vector rise_, tmp_, flow_;
  Vector k1_, k2_, k3_, k4_;
};

}  // namespace hydra::thermal
