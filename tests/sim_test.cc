// Integration tests for src/sim: the co-simulation System and the
// experiment harness. Short runs (a few hundred k instructions) keep the
// suite fast while still exercising every coupling.
#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/system.h"
#include "util/fields.h"

namespace hydra::sim {
namespace {

/// Shrunken configuration for fast tests: higher time acceleration so a
/// short run still spans several silicon time constants, with the sensor
/// period and thermal interval rescaled consistently.
SimConfig fast_config() {
  SimConfig cfg;
  cfg.time_scale = 150.0;
  cfg.thermal_interval_cycles = 2'000;
  cfg.warmup_instructions = 500'000;
  cfg.run_instructions = 600'000;
  return cfg;
}

workload::WorkloadProfile hot_profile() {
  return workload::spec2000_profile("crafty");
}

// ------------------------------------------------------------- baseline
TEST(System, BaselineRunsAtNominalFrequency) {
  System system(hot_profile(), fast_config(), nullptr);
  const RunResult r = system.run();
  EXPECT_EQ(r.policy, "baseline");
  EXPECT_GE(r.instructions, fast_config().run_instructions);
  EXPECT_GT(r.ipc, 0.5);
  // Without DTM the clock never changes: wall time == cycles / f_nom.
  EXPECT_NEAR(r.wall_seconds,
              static_cast<double>(r.cycles) / fast_config().f_nominal.value(),
              r.wall_seconds * 1e-9);
  EXPECT_DOUBLE_EQ(r.mean_gate_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.dvs_low_fraction, 0.0);
}

TEST(System, BaselineHotBenchmarkExceedsTrigger) {
  System system(hot_profile(), fast_config(), nullptr);
  const RunResult r = system.run();
  EXPECT_EQ(r.hottest_block, "IntReg");
  EXPECT_GT(r.above_trigger_fraction, 0.5);
  EXPECT_GT(r.max_true_celsius, 84.0);
  EXPECT_GT(r.mean_power_watts, 20.0);
  EXPECT_LT(r.mean_power_watts, 60.0);
}

TEST(System, BaselineDeterministic) {
  auto run_once = [] {
    System system(hot_profile(), fast_config(), nullptr);
    return system.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(util::diff_fields(a, b), "");
}

TEST(System, FractionsAreWellFormed) {
  System system(hot_profile(), fast_config(),
                make_policy(PolicyKind::kDvs, {}, fast_config()));
  const RunResult r = system.run();
  for (double f : {r.violation_fraction, r.above_trigger_fraction,
                   r.mean_gate_fraction, r.dvs_low_fraction,
                   r.clock_gated_fraction}) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-9);
  }
}

// ----------------------------------------------------------- DTM effects
TEST(System, DvsEliminatesViolationsAndSlowsDown) {
  const SimConfig cfg = fast_config();
  System baseline(hot_profile(), cfg, nullptr);
  const RunResult base = baseline.run();
  ASSERT_GT(base.violation_fraction, 0.0);  // crafty violates unmanaged

  System managed(hot_profile(), cfg, make_policy(PolicyKind::kDvs, {}, cfg));
  const RunResult r = managed.run();
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
  EXPECT_GT(r.dvs_low_fraction, 0.0);
  EXPECT_GT(r.wall_seconds, base.wall_seconds);
}

TEST(System, FetchGatingPolicyGates) {
  const SimConfig cfg = fast_config();
  System system(hot_profile(), cfg,
                make_policy(PolicyKind::kFetchGating, {}, cfg));
  const RunResult r = system.run();
  EXPECT_GT(r.mean_gate_fraction, 0.05);
  EXPECT_DOUBLE_EQ(r.dvs_low_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
}

TEST(System, ClockGatingPolicyStopsClock) {
  const SimConfig cfg = fast_config();
  System system(hot_profile(), cfg,
                make_policy(PolicyKind::kClockGating, {}, cfg));
  const RunResult r = system.run();
  EXPECT_GT(r.clock_gated_fraction, 0.02);
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
}

TEST(System, HybridUsesBothMechanisms) {
  const SimConfig cfg = fast_config();
  System system(hot_profile(), cfg,
                make_policy(PolicyKind::kHybrid, {}, cfg));
  const RunResult r = system.run();
  EXPECT_GT(r.mean_gate_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
}

TEST(System, DvsStallCountsTransitions) {
  const SimConfig cfg = fast_config();
  System system(hot_profile(), cfg, make_policy(PolicyKind::kDvs, {}, cfg));
  const RunResult r = system.run();
  EXPECT_GT(r.dvs_transitions, 0u);
}

TEST(System, TraceCallbackFires) {
  const SimConfig cfg = fast_config();
  System system(hot_profile(), cfg, make_policy(PolicyKind::kDvs, {}, cfg));
  int calls = 0;
  double last_t = -1.0;
  system.set_trace_callback([&](const StepTrace& st) {
    ++calls;
    EXPECT_GT(st.time_seconds, last_t);
    last_t = st.time_seconds;
    EXPECT_GT(st.power_watts, 0.0);
    EXPECT_GT(st.frequency.value(), 0.0);
  });
  system.run();
  EXPECT_GT(calls, 10);
}

TEST(System, RejectsBadTimeScale) {
  SimConfig cfg = fast_config();
  cfg.time_scale = 0.0;
  EXPECT_THROW(System(hot_profile(), cfg, nullptr), std::invalid_argument);
}

// ------------------------------------------------------------ experiment
TEST(Experiment, MakeLadderFollowsConfig) {
  SimConfig cfg;
  cfg.dvs_steps = 5;
  cfg.v_low_fraction = 0.8;
  const power::DvsLadder ladder = make_ladder(cfg);
  EXPECT_EQ(ladder.size(), 5u);
  EXPECT_NEAR(ladder.point(4).voltage.value(), 0.8 * 1.3, 1e-12);
}

TEST(Experiment, PolicyKindNames) {
  EXPECT_EQ(policy_kind_name(PolicyKind::kNone), "baseline");
  EXPECT_EQ(policy_kind_name(PolicyKind::kDvs), "DVS");
  EXPECT_EQ(policy_kind_name(PolicyKind::kPiHybrid), "PI-Hyb");
  EXPECT_EQ(policy_kind_name(PolicyKind::kHybrid), "Hyb");
}

TEST(Experiment, MakePolicyMatchesKinds) {
  const SimConfig cfg = fast_config();
  EXPECT_EQ(make_policy(PolicyKind::kNone, {}, cfg), nullptr);
  EXPECT_EQ(make_policy(PolicyKind::kDvs, {}, cfg)->name(), "DVS");
  EXPECT_EQ(make_policy(PolicyKind::kFetchGating, {}, cfg)->name(), "FG");
  EXPECT_EQ(make_policy(PolicyKind::kFixedFetchGating, {}, cfg)->name(),
            "FG-fixed");
  EXPECT_EQ(make_policy(PolicyKind::kClockGating, {}, cfg)->name(),
            "ClockGate");
  EXPECT_EQ(make_policy(PolicyKind::kPiHybrid, {}, cfg)->name(), "PI-Hyb");
  EXPECT_EQ(make_policy(PolicyKind::kHybrid, {}, cfg)->name(), "Hyb");
  EXPECT_EQ(make_policy(PolicyKind::kProactiveHybrid, {}, cfg)->name(),
            "Pro-Hyb");
}

TEST(System, ProactiveHybridIsSafe) {
  const SimConfig cfg = fast_config();
  System system(hot_profile(), cfg,
                make_policy(PolicyKind::kProactiveHybrid, {}, cfg));
  const RunResult r = system.run();
  EXPECT_DOUBLE_EQ(r.violation_fraction, 0.0);
}

TEST(Experiment, BaselineIsCached) {
  ExperimentRunner runner(fast_config());
  const RunResult& a = runner.baseline(hot_profile());
  const RunResult& b = runner.baseline(hot_profile());
  EXPECT_EQ(&a, &b);  // same cached object
}

TEST(Experiment, SlowdownIsAtLeastOneForThrottlingPolicies) {
  ExperimentRunner runner(fast_config());
  const ExperimentResult r = runner.run(hot_profile(), PolicyKind::kDvs, {});
  EXPECT_GE(r.slowdown, 1.0);
  EXPECT_EQ(r.dtm.policy, "DVS");
  EXPECT_EQ(r.baseline.policy, "baseline");
}

TEST(Experiment, SuiteAggregatesNineBenchmarks) {
  SimConfig cfg = fast_config();
  cfg.run_instructions = 150'000;  // keep this one quick
  cfg.warmup_instructions = 60'000;
  ExperimentRunner runner(cfg);
  const SuiteResult suite = runner.run_suite(PolicyKind::kHybrid, {});
  EXPECT_EQ(suite.per_benchmark.size(), 9u);
  EXPECT_GE(suite.mean_slowdown, 1.0);
  EXPECT_GE(suite.ci99_half_width, 0.0);
  EXPECT_EQ(suite.slowdowns().size(), 9u);
}

TEST(Experiment, DefaultSimConfigHonoursEnvironment) {
  setenv("HYDRA_RUN_INSTRUCTIONS", "123456", 1);
  const SimConfig cfg = default_sim_config();
  EXPECT_EQ(cfg.run_instructions, 123456u);
  unsetenv("HYDRA_RUN_INSTRUCTIONS");
  const SimConfig cfg2 = default_sim_config();
  EXPECT_EQ(cfg2.run_instructions, SimConfig{}.run_instructions);
}

// --------------------------------------------------- property: safety
/// Every policy must eliminate thermal violations on every benchmark —
/// the paper simulates all techniques "at levels that eliminate thermal
/// violations". Parameterised over (policy, benchmark).
class SafetySweep
    : public ::testing::TestWithParam<std::tuple<PolicyKind, const char*>> {};

TEST_P(SafetySweep, NoViolations) {
  const auto [kind, bench] = GetParam();
  SimConfig cfg = fast_config();
  ExperimentRunner runner(cfg);
  const ExperimentResult r =
      runner.run(workload::spec2000_profile(bench), kind, {});
  EXPECT_DOUBLE_EQ(r.dtm.violation_fraction, 0.0) << bench;
  EXPECT_LE(r.dtm.max_true_celsius,
            cfg.thresholds.emergency.value() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByBenchmark, SafetySweep,
    ::testing::Combine(::testing::Values(PolicyKind::kDvs,
                                         PolicyKind::kFetchGating,
                                         PolicyKind::kPiHybrid,
                                         PolicyKind::kHybrid,
                                         PolicyKind::kClockGating),
                       ::testing::Values("mesa", "crafty", "gzip", "art")),
    [](const auto& suite_info) {
      std::string name =
          policy_kind_name(std::get<0>(suite_info.param)) +
          std::string("_") + std::get<1>(suite_info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c) && c != '_'; });
      return name;
    });

}  // namespace
}  // namespace hydra::sim
