// Streaming statistics and simple inference helpers.
//
// The paper reports mean slowdowns across nine benchmarks with 99 %
// confidence statements; RunningStats + paired_t_statistic provide exactly
// the machinery needed to reproduce those claims.
#pragma once

#include <cstddef>
#include <span>

namespace hydra::util {

/// Numerically stable (Welford) accumulator for mean/variance/min/max.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x);

  /// Number of observations so far.
  std::size_t count() const { return n_; }
  /// Arithmetic mean; 0 when empty.
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 with fewer than two observations.
  double variance() const;
  /// Square root of variance().
  double stddev() const;
  /// Smallest observation; +inf when empty.
  double min() const { return min_; }
  /// Largest observation; -inf when empty.
  double max() const { return max_; }
  /// Sum of all observations.
  double sum() const { return sum_; }

  RunningStats();

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_;
  double max_;
};

/// Paired t statistic for the hypothesis mean(a - b) == 0.
/// Requires a.size() == b.size() >= 2. Returns 0 when the paired
/// differences have zero variance and zero mean.
double paired_t_statistic(std::span<const double> a, std::span<const double> b);

/// Two-sided critical value of Student's t for the given degrees of
/// freedom at 99 % confidence (alpha = 0.01). Exact table values for
/// df 1..30, asymptotic value beyond.
double t_critical_99(std::size_t degrees_of_freedom);

/// Half-width of the 99 % confidence interval of the mean of `xs`.
double confidence_half_width_99(std::span<const double> xs);

}  // namespace hydra::util
