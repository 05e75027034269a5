// Global die-level power-budget arbiter.
//
// A many-core die is power-limited as a whole: the package/VRM cap is a
// die-level number, not a per-core one. The arbiter splits a die budget
// across occupied tiles each thermal interval and emits a per-tile
// *floor* command — a minimum fetch-gate fraction, escalating to a
// minimum DVS level when gating saturates — that composes with each
// core's local thermal policy by taking the maximum of the two demands
// (util::max semantics: the more aggressive actuation wins). Local DTM
// still protects each tile's hotspot; the arbiter protects the die cap.
//
// Allocation is equal-share with deterministic headroom redistribution:
// every occupied tile starts with budget / n_occupied; tiles drawing
// less than their share donate the surplus, which is split equally among
// the tiles over their share (one pass, fixed tile order — bit-identical
// regardless of thread count). Throttle control is integral: each over-
// allowance interval ratchets the tile's gate floor up proportionally to
// the relative overshoot, each under-allowance interval releases it, so
// the loop settles where measured power rides the allowance.
#pragma once

#include <cstddef>
#include <vector>

#include "util/fields.h"
#include "util/units.h"

namespace hydra::core {

struct BudgetArbiterConfig {
  /// Die-level power cap. <= 0 disables the arbiter entirely.
  util::Watts die_budget{0.0};
  /// Gate-floor increase per unit of relative overshoot per update
  /// (integral gain). Dynamic power tracks duty cycle roughly linearly,
  /// so a gain near 1 would try to correct in one step; lower values
  /// trade response time for stability against interval-to-interval
  /// power noise.
  double gain = 0.35;
  /// Gate-floor decrease per update while under allowance.
  double release = 0.05;
  /// Gating ceiling before escalating to DVS. Matches the local
  /// policies' practical maximum duty cycle.
  double max_gate_fraction = 0.95;
  /// Consecutive saturated-and-over updates before raising the DVS
  /// floor one ladder level (and under-budget updates before lowering
  /// it). Debounces the discrete DVS step against power noise.
  std::size_t dvs_debounce_updates = 3;
};

template <util::FieldsOf<BudgetArbiterConfig> Self, class F>
void visit_fields(Self& a, F&& f) {
  f("die_budget", a.die_budget);
  f("gain", a.gain);
  f("release", a.release);
  f("max_gate_fraction", a.max_gate_fraction);
  f("dvs_debounce_updates", a.dvs_debounce_updates);
}

/// Per-tile floor command; compose with the local policy by max().
struct ArbiterCommand {
  double fetch_gate_floor = 0.0;
  std::size_t dvs_floor = 0;  ///< minimum DVS ladder level
};

class BudgetArbiter {
 public:
  /// `dvs_levels` is the ladder size (dvs_floor stays < dvs_levels).
  BudgetArbiter(BudgetArbiterConfig cfg, std::size_t tiles,
                std::size_t dvs_levels);

  bool enabled() const { return cfg_.die_budget.value() > 0.0; }

  /// Run one arbitration round from the tiles' measured interval-average
  /// powers. Unoccupied tiles get (and need) no command. Deterministic:
  /// depends only on the argument values and prior update history.
  const std::vector<ArbiterCommand>& update(
      const std::vector<util::Watts>& tile_power,
      const std::vector<bool>& occupied);

  const std::vector<ArbiterCommand>& commands() const { return commands_; }

  void reset();

 private:
  BudgetArbiterConfig cfg_;
  std::size_t dvs_levels_;
  std::vector<ArbiterCommand> commands_;
  std::vector<util::Watts> allowance_;
  std::vector<std::size_t> over_streak_;
  std::vector<std::size_t> under_streak_;
};

}  // namespace hydra::core
