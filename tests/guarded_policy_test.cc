// Tests for core::GuardedPolicy: unit tests of the supervision machinery
// against a recording stub, then sim-level property tests asserting the
// paper's safety envelope survives single-sensor faults on the hottest
// block for every headline policy.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <tuple>

#include "core/guarded_policy.h"
#include "fault/fault_campaign.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "util/fields.h"

namespace hydra {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Inner policy that records what the guard feeds it and returns a canned
/// command.
class RecordingPolicy final : public core::DtmPolicy {
 public:
  core::DtmCommand update(const core::ThermalSample& sample) override {
    last = sample;
    ++updates;
    return canned;
  }
  std::string_view name() const override { return "stub"; }
  void reset() override { ++resets; }

  core::ThermalSample last;
  core::DtmCommand canned;
  int updates = 0;
  int resets = 0;
};

/// Five sensors on a ring; every sensor has two neighbours.
std::vector<std::vector<std::size_t>> ring5() {
  std::vector<std::vector<std::size_t>> adj(5);
  for (std::size_t i = 0; i < 5; ++i) adj[i] = {(i + 4) % 5, (i + 1) % 5};
  return adj;
}

/// Small debounce windows so unit tests stay short. Frozen detection is
/// off because the tests feed noiseless readings.
core::GuardedPolicyConfig tight() {
  core::GuardedPolicyConfig cfg;
  cfg.learn_samples = 4;
  cfg.suspect_samples = 2;
  cfg.recovery_samples = 2;
  cfg.failsafe_release_samples = 2;
  cfg.frozen_samples = 0;
  return cfg;
}

struct Harness {
  explicit Harness(core::GuardedPolicyConfig cfg = tight()) {
    auto stub_owned = std::make_unique<RecordingPolicy>();
    stub = stub_owned.get();
    guard = std::make_unique<core::GuardedPolicy>(
        std::move(stub_owned), core::DtmThresholds{}, ring5(), cfg);
  }

  /// Feed one sample (5 readings) at the next 0.1 ms tick.
  core::DtmCommand feed(std::vector<double> readings) {
    core::ThermalSample s;
    s.sensed_celsius = std::move(readings);
    s.max_sensed = util::Celsius(0.0);  // the guard recomputes this for the inner policy
    s.time = util::Seconds(1e-4 * static_cast<double>(tick++));
    return guard->update(s);
  }

  RecordingPolicy* stub = nullptr;
  std::unique_ptr<core::GuardedPolicy> guard;
  int tick = 0;
};

// --------------------------------------------------------------- unit

TEST(GuardedPolicy, RejectsBadConstruction) {
  EXPECT_THROW(core::GuardedPolicy(nullptr, {}, {}), std::invalid_argument);
  EXPECT_THROW(core::GuardedPolicy(nullptr, {}, {{1}, {7}}),
               std::invalid_argument);
  core::GuardedPolicyConfig bad;
  bad.suspect_samples = 0;
  EXPECT_THROW(core::GuardedPolicy(nullptr, {}, ring5(), bad),
               std::invalid_argument);
}

TEST(GuardedPolicy, NameWrapsInner) {
  Harness h;
  EXPECT_EQ(h.guard->name(), "Guarded(stub)");
  const core::GuardedPolicy bare(nullptr, {}, ring5());
  EXPECT_EQ(bare.name(), "Guarded(none)");
}

TEST(GuardedPolicy, CleanReadingsPassThroughWithPessimismBias) {
  Harness h;
  h.stub->canned.fetch_gate_fraction = 0.5;
  core::DtmCommand cmd;
  for (int k = 0; k < 10; ++k) cmd = h.feed({80, 80, 80, 80, 80});
  EXPECT_EQ(h.stub->updates, 10);
  const double bias = tight().pessimism_bias.value();
  for (double v : h.stub->last.sensed_celsius) EXPECT_DOUBLE_EQ(v, 80 + bias);
  EXPECT_DOUBLE_EQ(h.stub->last.max_sensed.value(), 80 + bias);
  EXPECT_DOUBLE_EQ(cmd.fetch_gate_fraction, 0.5);
  EXPECT_FALSE(cmd.clock_gate);
  EXPECT_FALSE(h.guard->failsafe_engaged());
  EXPECT_EQ(h.guard->quarantined_count(), 0u);
  EXPECT_EQ(h.guard->stats().rejected_readings, 0u);
}

TEST(GuardedPolicy, DeadSensorIsSubstitutedImmediately) {
  Harness h;
  h.feed({kNan, 80, 80, 80, 80});
  EXPECT_TRUE(h.guard->quarantined(0));
  // Estimate: neighbour median (80) + learned deviation (0) +
  // substitution margin, then the global pessimism bias.
  const core::GuardedPolicyConfig cfg = tight();
  EXPECT_DOUBLE_EQ(h.stub->last.sensed_celsius[0],
                   80 + cfg.substitution_margin.value() +
                       cfg.pessimism_bias.value());
  EXPECT_DOUBLE_EQ(h.stub->last.sensed_celsius[1],
                   80 + cfg.pessimism_bias.value());
  h.feed({kNan, 80, 80, 80, 80});
  EXPECT_EQ(h.guard->stats().quarantine_entries, 1u);
  EXPECT_EQ(h.guard->stats().rejected_readings, 2u);
  EXPECT_FALSE(h.guard->failsafe_engaged());  // 1 of 5 lost: below watchdog
}

TEST(GuardedPolicy, StuckLowQuarantinedWithinDebounceWindow) {
  Harness h;
  for (int k = 0; k < 6; ++k) h.feed({80, 80, 80, 80, 80});
  // Stuck-at 40: the step detector flags the jump, the deviation vote
  // flags the level; quarantine after suspect_samples = 2.
  h.feed({40, 80, 80, 80, 80});
  EXPECT_FALSE(h.guard->quarantined(0));
  h.feed({40, 80, 80, 80, 80});
  EXPECT_TRUE(h.guard->quarantined(0));
  // The inner policy never loses sight of the hidden block: it sees the
  // neighbour-derived estimate, not 40.
  EXPECT_GT(h.stub->last.sensed_celsius[0], 80.0);
  EXPECT_EQ(h.guard->stats().quarantine_entries, 1u);
}

TEST(GuardedPolicy, WatchdogEngagesAndReleasesWithDebounce) {
  Harness h;
  for (int k = 0; k < 6; ++k) h.feed({80, 80, 80, 80, 80});
  // Two of five sensors dead: 2 > 5/3, the watchdog must engage and
  // override the inner policy with clock gating.
  core::DtmCommand cmd = h.feed({kNan, 80, kNan, 80, 80});
  EXPECT_TRUE(h.guard->failsafe_engaged());
  EXPECT_TRUE(cmd.clock_gate);
  cmd = h.feed({kNan, 80, kNan, 80, 80});
  EXPECT_TRUE(cmd.clock_gate);
  // Readings return: recovery needs recovery_samples = 2 agreeing
  // samples, then fail-safe release needs 2 more healthy samples.
  cmd = h.feed({80, 80, 80, 80, 80});  // recovery 1/2, still quarantined
  EXPECT_TRUE(cmd.clock_gate);
  cmd = h.feed({80, 80, 80, 80, 80});  // recovered; failsafe debounce 1/2
  EXPECT_EQ(h.guard->quarantined_count(), 0u);
  EXPECT_TRUE(cmd.clock_gate);
  cmd = h.feed({80, 80, 80, 80, 80});  // failsafe debounce 2/2 -> release
  EXPECT_FALSE(h.guard->failsafe_engaged());
  EXPECT_FALSE(cmd.clock_gate);
  EXPECT_EQ(h.guard->stats().failsafe_entries, 1u);
  EXPECT_GE(h.guard->stats().failsafe_samples, 4u);
}

TEST(GuardedPolicy, NoUsableSensorsForcesMaximalResponse) {
  Harness h;
  h.feed({80, 80, 80, 80, 80});
  const core::DtmCommand cmd = h.feed({kNan, kNan, kNan, kNan, kNan});
  EXPECT_TRUE(h.guard->failsafe_engaged());
  EXPECT_TRUE(cmd.clock_gate);
  // With nothing to vote with the inner policy is fed above-emergency
  // readings so every policy takes its strongest action.
  EXPECT_GT(h.stub->last.max_sensed.value(),
            core::DtmThresholds{}.emergency.value());
}

TEST(GuardedPolicy, RecoveryBackoffDoublesAfterRelapse) {
  Harness h;
  for (int k = 0; k < 6; ++k) h.feed({80, 80, 80, 80, 80});
  h.feed({kNan, 80, 80, 80, 80});
  ASSERT_TRUE(h.guard->quarantined(0));
  // First recovery: recovery_samples = 2 agreeing samples.
  h.feed({80, 80, 80, 80, 80});
  h.feed({80, 80, 80, 80, 80});
  ASSERT_FALSE(h.guard->quarantined(0));
  // Relapse: the requirement doubles to 4.
  h.feed({kNan, 80, 80, 80, 80});
  ASSERT_TRUE(h.guard->quarantined(0));
  for (int k = 0; k < 3; ++k) h.feed({80, 80, 80, 80, 80});
  EXPECT_TRUE(h.guard->quarantined(0));
  h.feed({80, 80, 80, 80, 80});
  EXPECT_FALSE(h.guard->quarantined(0));
  EXPECT_EQ(h.guard->stats().quarantine_entries, 2u);
}

TEST(GuardedPolicy, ResetRestoresPowerOnState) {
  Harness h;
  h.feed({kNan, kNan, 80, 80, 80});
  ASSERT_TRUE(h.guard->failsafe_engaged());
  h.guard->reset();
  EXPECT_FALSE(h.guard->failsafe_engaged());
  EXPECT_EQ(h.guard->quarantined_count(), 0u);
  EXPECT_EQ(h.guard->stats().samples, 0u);
  EXPECT_EQ(h.stub->resets, 1);
}

TEST(GuardedPolicy, ThrowsOnShortSample) {
  Harness h;
  core::ThermalSample s;
  s.sensed_celsius = {80, 80};
  EXPECT_THROW(h.guard->update(s), std::invalid_argument);
}

// ------------------------------------------------- sim-level properties

using sim::PolicyKind;
using sim::PolicyParams;
using sim::RunResult;
using sim::SimConfig;
using sim::System;

SimConfig fault_config(const std::string& campaign_text) {
  SimConfig cfg;
  cfg.time_scale = 150.0;
  cfg.thermal_interval_cycles = 2'000;
  cfg.warmup_instructions = 500'000;
  cfg.run_instructions = 600'000;
  if (!campaign_text.empty()) {
    cfg.fault_campaign =
        fault::FaultCampaign::from_string(campaign_text, sim::sensor_names());
  }
  return cfg;
}

RunResult run_crafty(PolicyKind kind, const SimConfig& cfg, bool guarded) {
  PolicyParams params;
  params.guarded = guarded;
  System system(workload::spec2000_profile("crafty"), cfg,
                sim::make_policy(kind, params, cfg));
  return system.run();
}

struct FaultCase {
  const char* name;
  const char* campaign;  ///< targets IntReg, crafty's hottest block
};

constexpr FaultCase kFaultCases[] = {
    {"StuckLow", "IntReg stuck_at 0.005 inf 40\n"},
    {"Dead", "IntReg dead 0.005 inf\n"},
    {"Drift", "IntReg drift 0.002 inf -500\n"},
    {"Stale", "IntReg stale 0.005 inf\n"},
};

class GuardedSafety
    : public ::testing::TestWithParam<std::tuple<PolicyKind, FaultCase>> {};

/// The acceptance property: with the hottest block's sensor failed
/// mid-run, every guarded policy keeps the true temperature inside the
/// paper's emergency envelope for the whole measured window.
TEST_P(GuardedSafety, NoEmergencyViolationUnderSingleSensorFault) {
  const auto [kind, fc] = GetParam();
  const SimConfig cfg = fault_config(fc.campaign);
  const RunResult r = run_crafty(kind, cfg, /*guarded=*/true);
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0)
      << "max_true=" << r.max_true_celsius
      << " rejections=" << r.sensor_rejections;
  EXPECT_GT(r.faulted_samples, 0u);
  EXPECT_GT(r.fault_window_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.fault_violation_fraction, 0.0);
}

std::string safety_case_name(
    const ::testing::TestParamInfo<GuardedSafety::ParamType>& info) {
  std::string name = sim::policy_kind_name(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + std::get<1>(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllFaults, GuardedSafety,
    ::testing::Combine(::testing::Values(PolicyKind::kPiHybrid,
                                         PolicyKind::kHybrid,
                                         PolicyKind::kDvs,
                                         PolicyKind::kFetchGating),
                       ::testing::ValuesIn(kFaultCases)),
    safety_case_name);

TEST(GuardedSim, UnguardedPolicyViolatesUnderStuckLowSensor) {
  // The same campaign against the bare policy: with the hottest block's
  // sensor reading 40 C the controller throttles for the wrong block and
  // the true temperature crosses the emergency threshold.
  const SimConfig cfg = fault_config(kFaultCases[0].campaign);
  const RunResult r = run_crafty(PolicyKind::kHybrid, cfg, /*guarded=*/false);
  EXPECT_GT(r.violation_fraction, 0.0);
  EXPECT_GT(r.max_true_celsius, cfg.thresholds.emergency.value());
}

TEST(GuardedSim, AllSensorsDeadEngagesFailsafeAndStaysSafe) {
  const SimConfig cfg = fault_config("all dead 0.005 inf\n");
  const RunResult r = run_crafty(PolicyKind::kHybrid, cfg, /*guarded=*/true);
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
  EXPECT_GT(r.failsafe_fraction, 0.2);
  EXPECT_GT(r.quarantine_entries, 0u);
}

TEST(GuardedSim, GuardIsQuietWithoutFaults) {
  const SimConfig cfg = fault_config("");
  const RunResult r = run_crafty(PolicyKind::kHybrid, cfg, /*guarded=*/true);
  EXPECT_EQ(r.faulted_samples, 0u);
  EXPECT_DOUBLE_EQ(r.failsafe_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.fault_window_fraction, 0.0);
}

TEST(GuardedSim, FaultRunsReplayDeterministically) {
  const SimConfig cfg = fault_config(
      "seed 42\n"
      "IntReg burst_noise 0.002 inf 4\n"
      "FPMul spike 0.003 inf 25 0.2\n");
  const RunResult a = run_crafty(PolicyKind::kHybrid, cfg, true);
  const RunResult b = run_crafty(PolicyKind::kHybrid, cfg, true);
  EXPECT_EQ(util::diff_fields(a, b), "");
}

}  // namespace
}  // namespace hydra
