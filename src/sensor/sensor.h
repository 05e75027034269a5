// On-chip thermal sensor model (paper Section 3).
//
// One sensor sits in the middle of each architectural block. Readings
// carry Gaussian noise (the paper's "effective precision after averaging
// of 1 degree"), a per-sensor fixed offset of up to 2 degrees in the
// dangerous direction (the sensor reads *low*, so DTM must keep sensed
// temperature under the 82 C practical limit to guarantee the true
// temperature stays under the 85 C emergency threshold), and ADC
// quantisation. Sampling runs at 10 kHz.
#pragma once

#include <cstdint>
#include <vector>

#include "util/fields.h"
#include "util/rng.h"
#include "util/units.h"

namespace hydra::sensor {

struct SensorConfig {
  /// Std-dev of per-sample Gaussian noise; 0.4 deg C yields the paper's
  /// +/-1 degree effective precision (99 % of samples within 1 degree).
  util::CelsiusDelta noise_sigma{0.4};
  /// ADC quantisation step.
  util::CelsiusDelta quantization{0.25};
  /// Maximum fixed per-sensor offset magnitude; each sensor draws a
  /// fixed offset uniformly in [-max_offset, 0] (reads low).
  util::CelsiusDelta max_offset{2.0};
  /// Sampling frequency (paper time; the System compresses the derived
  /// period by time_scale).
  util::Hertz sample_rate{10.0e3};
  std::uint64_t seed = 0xC0FFEE;
  bool enable_noise = true;
  bool enable_offset = true;
};

template <util::FieldsOf<SensorConfig> Self, class F>
void visit_fields(Self& s, F&& f) {
  f("noise_sigma", s.noise_sigma);
  f("quantization", s.quantization);
  f("max_offset", s.max_offset);
  f("sample_rate", s.sample_rate);
  f("seed", s.seed);
  f("enable_noise", s.enable_noise);
  f("enable_offset", s.enable_offset);
}

/// A bank of per-block sensors.
class SensorBank {
 public:
  SensorBank(std::size_t count, const SensorConfig& cfg);

  /// Sensor readings for the given true temperatures (first `count`
  /// entries of `truth` are read, so a full thermal-node vector works).
  std::vector<double> sample(const std::vector<double>& truth);

  /// sample() into a caller-provided buffer (resized to count()); the
  /// allocation-free hot-path variant, bit-identical to sample().
  void sample_into(const std::vector<double>& truth,
                   std::vector<double>& out);

  /// Sample a single sensor against its true temperature. Draws from the
  /// bank's shared noise stream, so calling sample_one for i = 0..count-1
  /// in order is bit-identical to one sample() call. This is the entry
  /// point fault injectors use to sample healthy sensors individually
  /// while substituting faulted ones. Throws std::out_of_range on a bad
  /// index.
  double sample_one(std::size_t i, double truth);

  /// Convenience: maximum over sample().
  double sample_max(const std::vector<double>& truth);

  std::size_t count() const { return offsets_.size(); }
  util::CelsiusDelta offset(std::size_t i) const {
    return util::CelsiusDelta(offsets_[i]);
  }
  const SensorConfig& config() const { return cfg_; }

 private:
  SensorConfig cfg_;
  std::vector<double> offsets_;
  util::Rng rng_;
};

}  // namespace hydra::sensor
