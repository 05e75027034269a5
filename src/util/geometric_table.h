// Table-driven twin of Rng::geometric for a fixed (p, max).
//
// Rng::geometric(p, max) maps one 53-bit uniform y to
// min(int(log1p(-y/2^53) / log1p(-p)), max), a log1p per draw. For a fixed
// p that map is a step function of y, so a table of its steps gives the
// same value from integer compares: threshold T_j is the least y whose
// draw is >= j, and a 256-entry guide indexed by y's top bits picks the
// step to start the walk from. The thresholds are found with the formula
// itself (an expm1 estimate, then a walk to the exact boundary), and any
// y within kGuard of a threshold is drawn by the formula, which keeps the
// table exact even where libm's log1p is not monotone to the last ulp.
// Each draw consumes exactly one next_u64(), as Rng::geometric does.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace hydra::util {

class GeometricTable {
 public:
  /// Half-width of the band around each threshold drawn by the formula.
  static constexpr std::uint64_t kGuard = 16;
  /// Most thresholds tabled; draws past the last go to the formula.
  static constexpr int kMaxSteps = 4096;

  /// Precondition: max >= 0.
  GeometricTable(double p, int max);

  /// Bit-identical to rng.geometric(p, max), from the same rng state.
  int draw(Rng& rng) const {
    return tabled_ ? lookup(rng.next_u64() >> 11) : fixed_;
  }

  /// The draw for the 53-bit uniform y (p in (0, 1)).
  int lookup(std::uint64_t y) const {
    std::size_t k = guide_[y >> 45];
    while (y >= steps_[k + 1]) ++k;
    if (y - steps_[k] < kGuard || steps_[k + 1] - y <= kGuard ||
        y >= formula_from_) {
      return formula(y);
    }
    return static_cast<int>(k);
  }

  /// T_1..T_J, the thresholds tabled (empty when p >= 1 or p <= 0).
  std::vector<std::uint64_t> thresholds() const;

 private:
  /// Rng::geometric's formula for the 53-bit uniform y.
  int formula(std::uint64_t y) const;

  bool tabled_ = false;
  int fixed_ = 0;  ///< the draw when !tabled_ (p >= 1: 0; p <= 0: max)
  int max_ = 0;
  double log1p_neg_p_ = 0.0;
  /// steps_[0] = 0, steps_[j] = T_j for j = 1..J, steps_[J + 1] = 2^53.
  std::vector<std::uint64_t> steps_;
  /// y at and above which the formula draws (2^53 unless kMaxSteps cut
  /// the table short).
  std::uint64_t formula_from_ = std::uint64_t{1} << 53;
  std::array<std::uint16_t, 256> guide_{};
};

}  // namespace hydra::util
