#include "util/geometric_table.h"

#include <algorithm>
#include <cmath>

namespace hydra::util {

namespace {
constexpr std::uint64_t kSpan = std::uint64_t{1} << 53;  // 53-bit uniforms
}  // namespace

int GeometricTable::formula(std::uint64_t y) const {
  const double g =
      std::log1p(-(static_cast<double>(y) * 0x1.0p-53)) / log1p_neg_p_;
  const int k = static_cast<int>(g);
  return k > max_ ? max_ : k;
}

GeometricTable::GeometricTable(double p, int max) : max_(max) {
  if (p >= 1.0 || p <= 0.0) {
    fixed_ = p >= 1.0 ? 0 : max;
    return;
  }
  tabled_ = true;
  log1p_neg_p_ = std::log1p(-p);
  steps_.push_back(0);
  for (int j = 1; j <= max; ++j) {
    if (j > kMaxSteps) {
      formula_from_ = steps_.back();
      break;
    }
    // Estimate where the draw reaches j, then walk to the least y whose
    // draw is >= j (never below the previous step).
    const double est = -std::expm1(j * log1p_neg_p_) * 0x1.0p53;
    std::uint64_t t =
        est <= 0.0 ? 0
                   : std::min(kSpan - 1, static_cast<std::uint64_t>(est));
    t = std::max(t, steps_.back());
    while (t > steps_.back() && formula(t - 1) >= j) --t;
    while (t < kSpan && formula(t) < j) ++t;
    if (t >= kSpan) break;  // no 53-bit uniform draws j or more
    steps_.push_back(t);
  }
  steps_.push_back(kSpan);
  std::size_t k = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    const std::uint64_t y = static_cast<std::uint64_t>(b) << 45;
    while (y >= steps_[k + 1]) ++k;
    guide_[b] = static_cast<std::uint16_t>(k);
  }
}

std::vector<std::uint64_t> GeometricTable::thresholds() const {
  if (steps_.size() < 2) return {};
  return {steps_.begin() + 1, steps_.end() - 1};
}

}  // namespace hydra::util
