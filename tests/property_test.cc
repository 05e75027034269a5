// Property-based and parameterised sweeps over the substrates:
// invariants that must hold for *any* valid input, exercised across
// randomly generated RC networks, floorplans, ladders and profiles.
#include <gtest/gtest.h>

#include <cmath>

#include "floorplan/ev7.h"
#include "power/voltage_freq.h"
#include "thermal/linalg.h"
#include "thermal/model_builder.h"
#include "thermal/rc_network.h"
#include "thermal/solver.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/spec_profiles.h"
#include "arch/core.h"

#include "rk4_reference.h"

namespace hydra {
namespace {

// ---------------------------------------------------------------------
// Random RC networks: solver invariants for any connected network.
// ---------------------------------------------------------------------
thermal::RcNetwork random_network(util::Rng& rng, std::size_t nodes) {
  thermal::RcNetwork net;
  for (std::size_t i = 0; i < nodes; ++i) {
    // Appends rather than operator+: see the PR105651 note below.
    std::string name = "n";
    name += std::to_string(i);
    net.add_node(name, util::JoulesPerKelvin(rng.uniform(0.1, 5.0)));
  }
  // Spanning chain guarantees connectivity; extra random edges.
  for (std::size_t i = 1; i < nodes; ++i) {
    net.connect(i - 1, i, util::KelvinPerWatt(rng.uniform(0.2, 4.0)));
  }
  for (std::size_t e = 0; e < nodes; ++e) {
    const std::size_t a = rng.below(nodes);
    const std::size_t b = rng.below(nodes);
    if (a != b) net.connect(a, b, util::KelvinPerWatt(rng.uniform(0.2, 4.0)));
  }
  net.connect_to_ambient(rng.below(nodes),
                         util::KelvinPerWatt(rng.uniform(0.5, 3.0)));
  net.connect_to_ambient(rng.below(nodes),
                         util::KelvinPerWatt(rng.uniform(0.5, 3.0)));
  return net;
}

class RandomNetworkSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetworkSweep, SteadyStateBalancesHeat) {
  util::Rng rng(1000 + GetParam());
  const std::size_t nodes = 3 + rng.below(12);
  const thermal::RcNetwork net = random_network(rng, nodes);
  thermal::Vector p(nodes, 0.0);
  double total = 0.0;
  for (double& w : p) {
    w = rng.uniform(0.0, 4.0);
    total += w;
  }
  const thermal::Vector t = thermal::steady_state(net, p, util::Celsius(45.0));
  // Heat into the network equals heat out: G * rise sums to total power.
  thermal::Vector rise(nodes);
  for (std::size_t i = 0; i < nodes; ++i) rise[i] = t[i] - 45.0;
  const thermal::Vector flow = net.conductance_matrix().multiply(rise);
  double out = 0.0;
  for (double f : flow) out += f;
  EXPECT_NEAR(out, total, 1e-8 * std::max(1.0, total));
  // Every temperature is at or above ambient for non-negative power.
  for (double v : t) EXPECT_GE(v, 45.0 - 1e-9);
}

TEST_P(RandomNetworkSweep, SteadyStateIsLinearInPower) {
  util::Rng rng(2000 + GetParam());
  const std::size_t nodes = 3 + rng.below(10);
  const thermal::RcNetwork net = random_network(rng, nodes);
  thermal::Vector p1(nodes, 0.0);
  thermal::Vector p2(nodes, 0.0);
  thermal::Vector sum(nodes, 0.0);
  for (std::size_t i = 0; i < nodes; ++i) {
    p1[i] = rng.uniform(0.0, 3.0);
    p2[i] = rng.uniform(0.0, 3.0);
    sum[i] = p1[i] + p2[i];
  }
  const thermal::Vector t1 = thermal::steady_state(net, p1, util::Celsius(0.0));
  const thermal::Vector t2 = thermal::steady_state(net, p2, util::Celsius(0.0));
  const thermal::Vector ts = thermal::steady_state(net, sum, util::Celsius(0.0));
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_NEAR(ts[i], t1[i] + t2[i], 1e-8);
  }
}

TEST_P(RandomNetworkSweep, BackwardEulerAgreesWithRk4) {
  util::Rng rng(3000 + GetParam());
  const std::size_t nodes = 3 + rng.below(8);
  const thermal::RcNetwork net = random_network(rng, nodes);
  thermal::Vector p(nodes, 0.0);
  for (double& w : p) w = rng.uniform(0.0, 3.0);

  thermal::TransientSolver be(net, util::Celsius(45.0),
                              thermal::Scheme::kBackwardEuler);
  thermal::Rk4Reference rk(net, util::Celsius(45.0));
  for (int i = 0; i < 3000; ++i) {
    be.step(p, util::Seconds(0.002));
    rk.step(p, util::Seconds(0.002));
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_NEAR(be.temperature(i).value(), rk.temperature(i).value(), 0.05);
  }
}

TEST_P(RandomNetworkSweep, TransientConvergesToSteadyState) {
  util::Rng rng(4000 + GetParam());
  const std::size_t nodes = 3 + rng.below(8);
  const thermal::RcNetwork net = random_network(rng, nodes);
  thermal::Vector p(nodes, 0.0);
  for (double& w : p) w = rng.uniform(0.0, 3.0);
  const thermal::Vector ss = thermal::steady_state(net, p, util::Celsius(45.0));
  thermal::TransientSolver solver(net, util::Celsius(45.0));
  for (int i = 0; i < 40'000; ++i) solver.step(p, util::Seconds(0.01));
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_NEAR(solver.temperature(i).value(), ss[i], 1e-4);
  }
}

TEST_P(RandomNetworkSweep, ConductanceMatrixIsSymmetric) {
  util::Rng rng(5000 + GetParam());
  const std::size_t nodes = 3 + rng.below(12);
  const thermal::RcNetwork net = random_network(rng, nodes);
  const thermal::Matrix g = net.conductance_matrix();
  for (std::size_t r = 0; r < nodes; ++r) {
    for (std::size_t c = r + 1; c < nodes; ++c) {
      EXPECT_DOUBLE_EQ(g(r, c), g(c, r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Random grid floorplans through the model builder.
// ---------------------------------------------------------------------
class RandomFloorplanSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomFloorplanSweep, PoweredBlockIsAlwaysHottest) {
  util::Rng rng(7000 + GetParam());
  // Random grid partition of a 12x12 mm die.
  const int cols = 2 + static_cast<int>(rng.below(4));
  const int rows = 2 + static_cast<int>(rng.below(4));
  floorplan::Floorplan fp;
  std::vector<double> xs = {0.0};
  std::vector<double> ys = {0.0};
  for (int c = 1; c < cols; ++c) {
    xs.push_back(xs.back() + rng.uniform(1e-3, 4e-3));
  }
  xs.push_back(xs.back() + rng.uniform(1e-3, 4e-3));
  for (int r = 1; r < rows; ++r) {
    ys.push_back(ys.back() + rng.uniform(1e-3, 4e-3));
  }
  ys.push_back(ys.back() + rng.uniform(1e-3, 4e-3));
  static std::vector<std::string>* names = new std::vector<std::string>();
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) {
      // Built by appends: chained operator+ trips GCC 12's -Wrestrict
      // false positive inside libstdc++ (PR105651) under -Werror.
      std::string name = "b";
      name += std::to_string(GetParam());
      name += '_';
      name += std::to_string(c);
      name += '_';
      name += std::to_string(r);
      names->push_back(std::move(name));
      fp.add({names->back(), xs[c], ys[r], xs[c + 1] - xs[c],
              ys[r + 1] - ys[r]});
    }
  }
  ASSERT_TRUE(fp.covers_die(1e-9));

  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  const std::size_t hot = rng.below(fp.size());
  thermal::Vector p(fp.size(), 0.0);
  p[hot] = 6.0;
  const thermal::Vector t =
      thermal::steady_state(model.network, model.expand_power(p), util::Celsius(45.0));
  for (std::size_t i = 0; i < fp.size(); ++i) {
    if (i != hot) {
      EXPECT_GE(t[hot], t[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFloorplanSweep, ::testing::Range(0, 6));

// ---------------------------------------------------------------------
// DVS ladders across step counts and low-voltage fractions.
// ---------------------------------------------------------------------
class LadderSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(LadderSweep, MonotoneAndBounded) {
  const auto [steps, frac] = GetParam();
  const power::VoltageFrequencyCurve curve;
  const power::DvsLadder ladder(curve, steps, frac);
  ASSERT_EQ(ladder.size(), static_cast<std::size_t>(steps));
  EXPECT_DOUBLE_EQ(ladder.point(0).voltage.value(), curve.v_nominal().value());
  EXPECT_NEAR(ladder.point(ladder.lowest_level()).voltage.value(),
              frac * curve.v_nominal().value(), 1e-12);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_LT(ladder.point(i).voltage.value(),
              ladder.point(i - 1).voltage.value());
    EXPECT_LT(ladder.point(i).frequency.value(),
              ladder.point(i - 1).frequency.value());
    // Power scales faster than frequency: V^2 f falls faster than f.
    const double pf = ladder.point(i).voltage.value() *
                      ladder.point(i).voltage.value() *
                      ladder.point(i).frequency.value();
    const double pf_prev = ladder.point(i - 1).voltage.value() *
                           ladder.point(i - 1).voltage.value() *
                           ladder.point(i - 1).frequency.value();
    const double f_ratio =
        ladder.point(i).frequency / ladder.point(i - 1).frequency;
    EXPECT_LT(pf / pf_prev, f_ratio);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LadderSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 10, 40),
                       ::testing::Values(0.7, 0.85, 0.95)));

// ---------------------------------------------------------------------
// Every SPEC profile drives the core to a sane operating point.
// ---------------------------------------------------------------------
class ProfileSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileSweep, CoreReachesRealisticIpc) {
  const auto profile = workload::spec2000_profile(GetParam());
  workload::SyntheticTrace trace(profile);
  arch::CoreConfig cfg;
  arch::Core core(cfg, trace);
  for (int i = 0; i < 150'000; ++i) core.cycle();  // warm
  const auto c0 = core.cycles();
  const auto i0 = core.committed();
  for (int i = 0; i < 400'000; ++i) core.cycle();
  const double ipc = static_cast<double>(core.committed() - i0) /
                     static_cast<double>(core.cycles() - c0);
  EXPECT_GT(ipc, 0.5) << GetParam();
  EXPECT_LT(ipc, 3.5) << GetParam();
  // Branch prediction must be doing useful work on every profile.
  EXPECT_LT(core.stats().mispredict_rate(), 0.25) << GetParam();
  EXPECT_GT(core.stats().branches, 0u);
}

TEST_P(ProfileSweep, FetchGatingMonotonicallyReducesThroughput) {
  const auto profile = workload::spec2000_profile(GetParam());
  double prev_ipc = 1e9;
  for (double g : {0.0, 1.0 / 3.0, 2.0 / 3.0}) {
    workload::SyntheticTrace trace(profile);
    arch::CoreConfig cfg;
    arch::Core core(cfg, trace);
    for (int i = 0; i < 120'000; ++i) core.cycle();
    core.set_fetch_gate_fraction(g);
    const auto c0 = core.cycles();
    const auto i0 = core.committed();
    for (int i = 0; i < 250'000; ++i) core.cycle();
    const double ipc = static_cast<double>(core.committed() - i0) /
                       static_cast<double>(core.cycles() - c0);
    EXPECT_LE(ipc, prev_ipc * 1.02) << GetParam() << " g=" << g;
    prev_ipc = ipc;
  }
}

INSTANTIATE_TEST_SUITE_P(Spec2000, ProfileSweep,
                         ::testing::Values("mesa", "perlbmk", "gzip",
                                           "bzip2", "eon", "crafty",
                                           "vortex", "gcc", "art"));

}  // namespace
}  // namespace hydra
