// Unit tests for src/thermal: linear algebra, RC networks, solvers, and
// the HotSpot-style model builder.
#include <gtest/gtest.h>

#include <cmath>

#include "floorplan/ev7.h"
#include "thermal/linalg.h"
#include "thermal/model_builder.h"
#include "thermal/package.h"
#include "thermal/rc_network.h"
#include "thermal/solver.h"
#include "util/units.h"

#include "rk4_reference.h"

namespace hydra::thermal {
namespace {

using floorplan::BlockId;
using util::Celsius;
using util::JoulesPerKelvin;
using util::KelvinPerWatt;
using util::Seconds;

// ----------------------------------------------------------------- linalg
TEST(Linalg, IdentitySolve) {
  const Matrix i3 = Matrix::identity(3);
  const Vector b = {1.0, 2.0, 3.0};
  const Vector x = solve_linear(i3, b);
  for (int k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(x[k], b[k]);
}

TEST(Linalg, KnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const Vector x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linalg, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const Vector x = solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Linalg, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(LuFactorization{a}, std::runtime_error);
}

TEST(Linalg, NonSquareThrows) {
  EXPECT_THROW(LuFactorization{Matrix(2, 3)}, std::invalid_argument);
}

TEST(Linalg, MultiplyMatchesSolveInverse) {
  Matrix a(3, 3);
  a(0, 0) = 4;  a(0, 1) = 1;  a(0, 2) = 0;
  a(1, 0) = 1;  a(1, 1) = 5;  a(1, 2) = 2;
  a(2, 0) = 0;  a(2, 1) = 2;  a(2, 2) = 6;
  const Vector x0 = {1.0, -2.0, 0.5};
  const Vector b = a.multiply(x0);
  const Vector x = solve_linear(a, b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x0[i], 1e-12);
}

TEST(Linalg, ReusableFactorization) {
  Matrix a(2, 2);
  a(0, 0) = 3.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const LuFactorization lu(a);
  const Vector x1 = lu.solve({4.0, 3.0});
  const Vector x2 = lu.solve({8.0, 6.0});
  EXPECT_NEAR(x2[0], 2.0 * x1[0], 1e-12);
  EXPECT_NEAR(x2[1], 2.0 * x1[1], 1e-12);
}

TEST(Linalg, MultiplyIntoSizeMismatchThrows) {
  const Matrix a(2, 3);
  Vector y;
  Vector x_short = {1.0, 2.0};       // cols is 3
  Vector x_long = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(a.multiply_into(x_short, y), std::invalid_argument);
  EXPECT_THROW(a.multiply_into(x_long, y), std::invalid_argument);
}

TEST(Linalg, MultiplyIntoAliasingThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  Vector x = {1.0, 2.0};
  EXPECT_THROW(a.multiply_into(x, x), std::invalid_argument);
}

TEST(Linalg, MultiplyIntoDegenerateShapes) {
  // 0x0: a valid no-op that must leave y empty.
  const Matrix empty(0, 0);
  Vector y = {9.0};
  Vector x0;
  empty.multiply_into(x0, y);
  EXPECT_TRUE(y.empty());

  // 1x1: plain scalar product.
  Matrix one(1, 1);
  one(0, 0) = 2.5;
  Vector x1 = {4.0};
  one.multiply_into(x1, y);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 10.0);

  // Non-square (2x3 and 3x2): y resized to rows, values exact.
  Matrix wide(2, 3);
  wide(0, 0) = 1.0;  wide(0, 1) = 2.0;  wide(0, 2) = 3.0;
  wide(1, 0) = -1.0; wide(1, 1) = 0.5;  wide(1, 2) = 4.0;
  Vector x3 = {1.0, 2.0, 3.0};
  wide.multiply_into(x3, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 14.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);

  Matrix tall(3, 2);
  tall(0, 0) = 1.0; tall(0, 1) = 0.0;
  tall(1, 0) = 0.0; tall(1, 1) = 1.0;
  tall(2, 0) = 2.0; tall(2, 1) = -1.0;
  Vector x2 = {3.0, 5.0};
  tall.multiply_into(x2, y);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
}

// -------------------------------------------------------------- network
TEST(RcNetwork, RejectsBadInputs) {
  RcNetwork net;
  EXPECT_THROW(net.add_node("bad", JoulesPerKelvin(0.0)), std::invalid_argument);
  const std::size_t a = net.add_node("a", JoulesPerKelvin(1.0));
  const std::size_t b = net.add_node("b", JoulesPerKelvin(1.0));
  EXPECT_THROW(net.connect(a, a, KelvinPerWatt(1.0)), std::invalid_argument);
  EXPECT_THROW(net.connect(a, b, KelvinPerWatt(0.0)), std::invalid_argument);
  EXPECT_THROW(net.connect(a, 5, KelvinPerWatt(1.0)), std::invalid_argument);
  EXPECT_THROW(net.connect_to_ambient(a, KelvinPerWatt(-1.0)), std::invalid_argument);
}

TEST(RcNetwork, ConductanceMatrixStructure) {
  RcNetwork net;
  const std::size_t a = net.add_node("a", JoulesPerKelvin(1.0));
  const std::size_t b = net.add_node("b", JoulesPerKelvin(1.0));
  net.connect(a, b, KelvinPerWatt(2.0));              // g = 0.5
  net.connect_to_ambient(a, KelvinPerWatt(4.0));      // g = 0.25
  const Matrix g = net.conductance_matrix();
  EXPECT_DOUBLE_EQ(g(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(g(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(g(0, 1), -0.5);
  EXPECT_DOUBLE_EQ(g(1, 0), -0.5);
  EXPECT_DOUBLE_EQ(net.total_ambient_conductance().value(), 0.25);
}

TEST(RcNetwork, ParallelResistancesAccumulate) {
  RcNetwork net;
  const std::size_t a = net.add_node("a", JoulesPerKelvin(1.0));
  const std::size_t b = net.add_node("b", JoulesPerKelvin(1.0));
  net.connect(a, b, KelvinPerWatt(2.0));
  net.connect(a, b, KelvinPerWatt(2.0));
  const Matrix g = net.conductance_matrix();
  EXPECT_DOUBLE_EQ(g(0, 1), -1.0);
}

// ------------------------------------------------------- analytic solves
/// One node, R to ambient: steady T = ambient + P*R; transient is a pure
/// exponential with tau = R*C.
TEST(Solver, SingleNodeSteadyState) {
  RcNetwork net;
  const std::size_t n = net.add_node("n", JoulesPerKelvin(2.0));
  net.connect_to_ambient(n, KelvinPerWatt(3.0));
  const Vector t = steady_state(net, {5.0}, Celsius(45.0));
  EXPECT_NEAR(t[0], 45.0 + 15.0, 1e-12);
}

TEST(Solver, SingleNodeTransientExponential) {
  RcNetwork net;
  net.add_node("n", JoulesPerKelvin(2.0));           // C = 2
  net.connect_to_ambient(0, KelvinPerWatt(3.0));   // R = 3, tau = 6 s
  Rk4Reference solver(net, Celsius(45.0));
  const double power = 5.0;
  // Step for one tau in small increments; expect 1 - e^-1 of the rise.
  const double tau = 6.0;
  const int steps = 600;
  for (int i = 0; i < steps; ++i) {
    solver.step({power}, Seconds(tau / steps));
  }
  const double expected = 45.0 + 15.0 * (1.0 - std::exp(-1.0));
  EXPECT_NEAR(solver.temperature(0).value(), expected, 0.01);
}

TEST(Solver, BackwardEulerMatchesRk4) {
  RcNetwork net;
  const std::size_t a = net.add_node("a", JoulesPerKelvin(1.0));
  const std::size_t b = net.add_node("b", JoulesPerKelvin(4.0));
  net.connect(a, b, KelvinPerWatt(2.0));
  net.connect_to_ambient(b, KelvinPerWatt(1.0));
  TransientSolver be(net, Celsius(40.0), Scheme::kBackwardEuler);
  Rk4Reference rk(net, Celsius(40.0));
  const Vector p = {3.0, 0.5};
  for (int i = 0; i < 2000; ++i) {
    be.step(p, Seconds(0.01));
    rk.step(p, Seconds(0.01));
  }
  EXPECT_NEAR(be.temperature(a).value(), rk.temperature(a).value(), 0.05);
  EXPECT_NEAR(be.temperature(b).value(), rk.temperature(b).value(), 0.05);
}

TEST(Solver, TransientConvergesToSteadyState) {
  RcNetwork net;
  const std::size_t a = net.add_node("a", JoulesPerKelvin(1.0));
  const std::size_t b = net.add_node("b", JoulesPerKelvin(2.0));
  net.connect(a, b, KelvinPerWatt(1.5));
  net.connect_to_ambient(a, KelvinPerWatt(2.0));
  net.connect_to_ambient(b, KelvinPerWatt(5.0));
  const Vector p = {2.0, 1.0};
  const Vector ss = steady_state(net, p, Celsius(45.0));
  TransientSolver solver(net, Celsius(45.0));
  for (int i = 0; i < 20000; ++i) solver.step(p, Seconds(0.01));
  EXPECT_NEAR(solver.temperature(a).value(), ss[0], 1e-6);
  EXPECT_NEAR(solver.temperature(b).value(), ss[1], 1e-6);
}

TEST(Solver, InitializeSteadyStateIsFixedPoint) {
  RcNetwork net;
  net.add_node("a", JoulesPerKelvin(1.0));
  net.add_node("b", JoulesPerKelvin(2.0));
  net.connect(0, 1, KelvinPerWatt(1.0));
  net.connect_to_ambient(1, KelvinPerWatt(1.0));
  const Vector p = {4.0, 0.0};
  TransientSolver solver(net, Celsius(45.0));
  solver.initialize_steady_state(p);
  const double before = solver.temperature(0).value();
  for (int i = 0; i < 100; ++i) solver.step(p, Seconds(0.05));
  EXPECT_NEAR(solver.temperature(0).value(), before, 1e-9);
}

TEST(Solver, ZeroPowerDecaysToAmbient) {
  RcNetwork net;
  net.add_node("a", JoulesPerKelvin(1.0));
  net.connect_to_ambient(0, KelvinPerWatt(1.0));
  TransientSolver solver(net, Celsius(45.0));
  solver.set_temperatures({90.0});
  for (int i = 0; i < 5000; ++i) solver.step({0.0}, Seconds(0.01));
  EXPECT_NEAR(solver.temperature(0).value(), 45.0, 1e-6);
}

TEST(Solver, RejectsBadArguments) {
  RcNetwork net;
  net.add_node("a", JoulesPerKelvin(1.0));
  net.connect_to_ambient(0, KelvinPerWatt(1.0));
  TransientSolver solver(net, Celsius(45.0));
  EXPECT_THROW(solver.step({1.0, 2.0}, Seconds(0.1)), std::invalid_argument);
  EXPECT_THROW(solver.step({1.0}, Seconds(0.0)), std::invalid_argument);
  EXPECT_THROW(solver.set_temperatures({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(steady_state(net, {1.0, 2.0}, Celsius(45.0)), std::invalid_argument);
}

TEST(RcNetwork, CapacitanceScalingSpeedsDynamics) {
  RcNetwork slow;
  slow.add_node("a", JoulesPerKelvin(10.0));
  slow.connect_to_ambient(0, KelvinPerWatt(1.0));
  RcNetwork fast;
  fast.add_node("a", JoulesPerKelvin(10.0));
  fast.connect_to_ambient(0, KelvinPerWatt(1.0));
  fast.scale_capacitances(10.0);
  EXPECT_DOUBLE_EQ(fast.capacitance(0).value(), 1.0);

  TransientSolver s_slow(slow, Celsius(45.0));
  TransientSolver s_fast(fast, Celsius(45.0));
  // After the same wall time the scaled network is much closer to its
  // (identical) steady state.
  for (int i = 0; i < 100; ++i) {
    s_slow.step({5.0}, Seconds(0.01));
    s_fast.step({5.0}, Seconds(0.01));
  }
  EXPECT_GT(s_fast.temperature(0).value(), s_slow.temperature(0).value());
}

// ------------------------------------------------------- model builder
class ModelBuilderTest : public ::testing::Test {
 protected:
  floorplan::Floorplan fp_ = floorplan::ev7_floorplan();
  Package pkg_{};
  ThermalModel model_ = build_thermal_model(fp_, pkg_);
};

TEST_F(ModelBuilderTest, NodeCount) {
  // blocks + spreader (1+4) + sink (1+4)
  EXPECT_EQ(model_.network.size(), fp_.size() + 10);
  EXPECT_EQ(model_.num_blocks, fp_.size());
}

TEST_F(ModelBuilderTest, SteadyStateConservesHeat) {
  // Total heat must leave through the convection resistance: the mean
  // sink-to-ambient rise weighted by conductance equals P_total * R_eq.
  Vector p(fp_.size(), 0.0);
  p[static_cast<std::size_t>(BlockId::kIntReg)] = 10.0;
  const Vector t = steady_state(model_.network, model_.expand_power(p), Celsius(45.0));
  // Heat out = sum over ambient-connected nodes of g_i * rise_i.
  // total_ambient_conductance * mean weighted rise == 10 W.
  // Verify via an energy-balance reconstruction:
  const Matrix g = model_.network.conductance_matrix();
  Vector rise(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) rise[i] = t[i] - 45.0;
  const Vector flow = g.multiply(rise);
  double total_in = 0.0;
  for (double f : flow) total_in += f;
  EXPECT_NEAR(total_in, 10.0, 1e-9);
}

TEST_F(ModelBuilderTest, PoweredBlockIsHottest) {
  Vector p(fp_.size(), 0.0);
  p[static_cast<std::size_t>(BlockId::kIntReg)] = 8.0;
  const Vector t = steady_state(model_.network, model_.expand_power(p), Celsius(45.0));
  const std::size_t reg = static_cast<std::size_t>(BlockId::kIntReg);
  for (std::size_t i = 0; i < fp_.size(); ++i) {
    if (i != reg) {
      EXPECT_GT(t[reg], t[i]) << fp_.block(i).name;
    }
  }
  // And its neighbours are warmer than far-away blocks.
  const std::size_t exec = static_cast<std::size_t>(BlockId::kIntExec);
  const std::size_t fpmap = static_cast<std::size_t>(BlockId::kFPMap);
  EXPECT_GT(t[exec], t[fpmap]);
}

TEST_F(ModelBuilderTest, UniformPowerGivesSinkDrivenRise) {
  // ~40 W spread over the die with r_convec = 1.0 K/W must put the sink
  // about 40 K over ambient and the die a few K above the sink.
  Vector p(fp_.size(), 0.0);
  const double total = 40.0;
  for (std::size_t i = 0; i < fp_.size(); ++i) {
    p[i] = total * fp_.block(i).area() / fp_.die_area();
  }
  const Vector t = steady_state(model_.network, model_.expand_power(p), Celsius(45.0));
  const double sink = t[model_.sink_center];
  EXPECT_NEAR(sink - 45.0, total * pkg_.r_convec.value(), total * 0.35);
  // Die is hotter than the sink.
  EXPECT_GT(t[static_cast<std::size_t>(BlockId::kIntReg)], sink);
}

TEST_F(ModelBuilderTest, ExpandPowerValidatesSize) {
  EXPECT_THROW(model_.expand_power(Vector(3, 1.0)), std::invalid_argument);
}

TEST_F(ModelBuilderTest, RejectsNonTilingFloorplan) {
  floorplan::Floorplan bad;
  bad.add({"a", 0, 0, 1e-3, 1e-3});
  bad.add({"b", 2e-3, 0, 1e-3, 1e-3});
  EXPECT_THROW(build_thermal_model(bad, pkg_), std::invalid_argument);
}

TEST_F(ModelBuilderTest, SinkTimeConstantDwarfsSilicon) {
  // Paper: "over these time scales, the heat sink temperature changes
  // little" — the sink's C/G must exceed a silicon block's by orders of
  // magnitude.
  const JoulesPerKelvin c_block =
      model_.network.capacitance(static_cast<std::size_t>(BlockId::kIntReg));
  const JoulesPerKelvin c_sink = model_.network.capacitance(model_.sink_center);
  EXPECT_GT(c_sink / c_block, 100.0);
}

}  // namespace
}  // namespace hydra::thermal
