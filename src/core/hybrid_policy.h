// Hybrid DTM policies — the paper's contribution (Sections 4.2, 5).
//
// The insight: under *mild* thermal stress an ILP technique (fetch
// gating) costs less than DVS because the out-of-order window hides the
// fetch bubbles, while under *severe* stress DVS wins through its
// roughly cubic power reduction. A hybrid uses fetch gating up to the
// crossover point — the gating level beyond which ILP is exhausted and
// slowdown starts rising in proportion to the duty cycle — and then
// switches to (binary) DVS. Unlike fallback schemes (DEETM), the switch
// happens at the *optimality* crossover, well before fetch gating's
// cooling ability is exhausted.
//
// Two implementations:
//  * PiHybridPolicy ("PI-Hyb"): a PI controller sets the gating fraction;
//    when its unclamped demand exceeds the crossover level, DVS engages.
//  * HybridPolicy ("Hyb"): no controller at all — two temperature
//    comparators. Between the trigger and a second threshold the fixed
//    crossover-level gating is applied; above the second threshold DVS
//    engages. The paper shows this sacrifices nothing (and is slightly
//    better under DVS-stall), eliminating feedback-control tuning risk.
#pragma once

#include "control/low_pass.h"
#include "control/pi_controller.h"
#include "core/dtm_policy.h"
#include "power/voltage_freq.h"
#include "util/fields.h"

namespace hydra::core {

struct HybridConfig {
  /// The ILP/DVS crossover gating fraction. The paper's crossover is a
  /// maximum duty cycle of 3 — skip fetch once every three cycles —
  /// i.e. a gating fraction of 1/3 (for DVS-stall; 1/20 for DVS-ideal).
  double crossover_gate_fraction = 1.0 / 3.0;

  // --- PI-Hyb ---
  util::PerCelsius kp{0.0};
  util::PerCelsiusSecond ki{600.0};
  /// Unclamped-demand margin above the crossover before DVS engages.
  double crossover_margin = 0.15;

  // --- Hyb ---
  /// Second comparator threshold offset above the trigger: at or above
  /// trigger + dvs_threshold_offset, DVS engages. Sized to exceed the
  /// sensor noise amplitude (so the fetch-gating band is real) while
  /// keeping enough margin below the emergency threshold for the DVS
  /// response to land.
  util::CelsiusDelta dvs_threshold_offset{1.1};

  // Common release behaviour: de-escalation is debounced.
  util::CelsiusDelta hysteresis{0.3};
  std::size_t release_filter_samples = 3;
  /// Hyb: consecutive samples at/above the DVS threshold required before
  /// escalating from fetch gating to DVS. Sensor noise is uncorrelated
  /// between samples, so 2 suppresses pure-noise spikes while a real
  /// overshoot (which persists for many samples) escalates within one
  /// sensor period.
  std::size_t escalate_filter_samples = 2;
};

template <util::FieldsOf<HybridConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("crossover_gate_fraction", c.crossover_gate_fraction);
  f("kp", c.kp);
  f("ki", c.ki);
  f("crossover_margin", c.crossover_margin);
  f("dvs_threshold_offset", c.dvs_threshold_offset);
  f("hysteresis", c.hysteresis);
  f("release_filter_samples", c.release_filter_samples);
  f("escalate_filter_samples", c.escalate_filter_samples);
}

/// Feedback-controlled hybrid ("PI-Hyb").
class PiHybridPolicy final : public DtmPolicy {
 public:
  PiHybridPolicy(const power::DvsLadder& ladder, DtmThresholds thresholds,
                 HybridConfig cfg);

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return "PI-Hyb"; }
  void reset() override;

  bool dvs_engaged() const { return dvs_engaged_; }

 private:
  power::DvsLadder ladder_;
  DtmThresholds thresholds_;
  HybridConfig cfg_;
  control::PiController pi_;
  control::ConsecutiveDebounce release_filter_;
  bool dvs_engaged_ = false;
  util::Seconds last_time_{-1.0};
};

/// Controller-free two-threshold hybrid ("Hyb").
class HybridPolicy final : public DtmPolicy {
 public:
  HybridPolicy(const power::DvsLadder& ladder, DtmThresholds thresholds,
               HybridConfig cfg);

  DtmCommand update(const ThermalSample& sample) override;
  std::string_view name() const override { return "Hyb"; }
  void reset() override;

  /// 0 = off, 1 = fetch gating, 2 = DVS.
  int escalation_level() const { return level_; }

 private:
  power::DvsLadder ladder_;
  DtmThresholds thresholds_;
  HybridConfig cfg_;
  control::ConsecutiveDebounce release_filter_;
  control::ConsecutiveDebounce escalate_filter_;
  int level_ = 0;
};

}  // namespace hydra::core
