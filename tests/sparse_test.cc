// Sparse thermal solve path (DESIGN.md section 17): CSR assembly must
// match the dense conductance matrix entry for entry; the sparse LDL^T
// must agree with the dense LU to solver round-off; full fused-BE runs
// with the sparse path on must track the dense runs to <= 1e-9 degC
// over randomized floorplans and the rounded-dt set; the divergence
// guard must fall back to the LU reference path; and a many-core run
// with the sparse path pinned on must stay bit-identical across worker
// widths.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "floorplan/multicore.h"
#include "sim/experiment.h"
#include "sim/multicore.h"
#include "sim/persistent_cache.h"
#include "sim/system.h"
#include "thermal/model_builder.h"
#include "thermal/rc_network.h"
#include "thermal/solver.h"
#include "thermal/sparse.h"
#include "util/rng.h"

namespace hydra {
namespace {

/// Pins the HYDRA_SPARSE dispatch for one test and restores it on exit.
struct SparseModeGuard {
  explicit SparseModeGuard(thermal::SparseMode m)
      : prev(thermal::sparse_mode()) {
    thermal::set_sparse_mode_for_test(m);
  }
  ~SparseModeGuard() { thermal::set_sparse_mode_for_test(prev); }
  thermal::SparseMode prev;
};

/// Random connected RC network (the property_test generator): spanning
/// chain + random extra edges + two ambient ties, so G is strictly SPD.
thermal::RcNetwork random_network(util::Rng& rng, std::size_t nodes) {
  thermal::RcNetwork net;
  for (std::size_t i = 0; i < nodes; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    net.add_node(name, util::JoulesPerKelvin(rng.uniform(0.1, 5.0)));
  }
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

thermal::Vector random_power(util::Rng& rng, std::size_t nodes) {
  thermal::Vector p(nodes, 0.0);
  for (double& w : p) w = rng.uniform(0.0, 3.0);
  return p;
}

// ------------------------------------------------------- CSR assembly

// conductance_csr() must reproduce conductance_matrix() exactly: same
// values (both accumulate the Laplacian in index order), zero where no
// edge exists, strictly ascending column indices within each row.
TEST(SparseCsr, AssemblyMatchesDenseMatrix) {
  util::Rng rng(0x5ca15eULL);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t nodes = 3 + rng.below(40);
    const thermal::RcNetwork net = random_network(rng, nodes);
    const thermal::Matrix dense = net.conductance_matrix();
    const thermal::CsrMatrix csr = net.conductance_csr();
    ASSERT_EQ(csr.rows, nodes);
    ASSERT_EQ(csr.cols, nodes);
    const thermal::Matrix expanded = csr.to_dense();
    for (std::size_t r = 0; r < nodes; ++r) {
      for (std::size_t c = 0; c < nodes; ++c) {
        EXPECT_DOUBLE_EQ(expanded(r, c), dense(r, c)) << r << "," << c;
      }
      for (std::size_t k = csr.row_ptr[r] + 1; k < csr.row_ptr[r + 1]; ++k) {
        EXPECT_LT(csr.col_idx[k - 1], csr.col_idx[k]) << "row " << r;
      }
    }
  }
}

// The die model the simulator actually steps: same equality on the
// 16-core multicore network, and the sparsity must be O(n), not O(n^2)
// (the whole point of the path).
TEST(SparseCsr, MulticoreModelAssemblyAndSparsity) {
  const auto fp = floorplan::multicore_floorplan(16);
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  const std::size_t n = model.network.size();
  const thermal::Matrix dense = model.network.conductance_matrix();
  const thermal::CsrMatrix csr = model.network.conductance_csr();
  const thermal::Matrix expanded = csr.to_dense();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_DOUBLE_EQ(expanded(r, c), dense(r, c)) << r << "," << c;
    }
  }
  EXPECT_LT(csr.nnz(), 16 * n) << "RC die networks have O(n) nonzeros";
}

TEST(SparseCsr, MultiplyMatchesDenseMatvec) {
  util::Rng rng(0xc5a0ULL);
  const std::size_t nodes = 3 + rng.below(30);
  const thermal::RcNetwork net = random_network(rng, nodes);
  const thermal::CsrMatrix csr = net.conductance_csr();
  thermal::Vector x = random_power(rng, nodes);
  const thermal::Vector want = net.conductance_matrix().multiply(x);
  thermal::Vector got(nodes, 0.0);
  csr.multiply_into(x.data(), got.data());
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12 * std::max(1.0, std::abs(want[i])));
  }
}

// --------------------------------------------------- LDL^T correctness

// Solving G x = P through the sparse Cholesky must agree with the dense
// LU steady-state solve to round-off, on random networks spanning both
// sides of the crossover.
TEST(SparseCholesky, SteadySolveMatchesDenseLu) {
  util::Rng rng(0x1d17ULL);
  for (const std::size_t nodes : {5u, 28u, 82u, 200u}) {
    const thermal::RcNetwork net = random_network(rng, nodes);
    const thermal::Vector p = random_power(rng, nodes);
    const util::Celsius ambient(45.0);
    const thermal::Vector dense = thermal::steady_state(net, p, ambient);
    const thermal::SparseCholesky chol(net.conductance_csr());
    EXPECT_EQ(chol.size(), nodes);
    thermal::Vector sparse;
    thermal::Vector work;
    thermal::steady_state_into(chol, p, ambient, sparse, work);
    for (std::size_t i = 0; i < nodes; ++i) {
      EXPECT_NEAR(sparse[i], dense[i], 1e-9) << "node " << i;
    }
  }
}

// Residual check independent of any dense reference: A x must equal b
// to round-off on the step matrix C/dt + G the solver actually inverts.
TEST(SparseCholesky, StepMatrixResidualIsRoundoff) {
  util::Rng rng(0xbeefULL);
  const std::size_t nodes = 60;
  const thermal::RcNetwork net = random_network(rng, nodes);
  const thermal::LuCache cache(net);
  const thermal::SparseStepOperator& op =
      cache.sparse(thermal::round_step_dt(1e-4));
  const thermal::Vector b = random_power(rng, nodes);
  thermal::Vector x(nodes, 0.0);
  thermal::Vector work(nodes, 0.0);
  op.chol.solve_into(b.data(), x.data(), work.data());
  // A = G + diag(C/dt): rebuild the residual from the CSR of G.
  thermal::Vector ax(nodes, 0.0);
  cache.conductance_csr().multiply_into(x.data(), ax.data());
  for (std::size_t i = 0; i < nodes; ++i) {
    ax[i] += op.c_over_dt[i] * x[i];
    EXPECT_NEAR(ax[i], b[i], 1e-9 * std::max(1.0, std::abs(b[i])))
        << "node " << i;
  }
}

TEST(SparseCholesky, RejectsInvalidMatrices) {
  thermal::CsrMatrix rect;
  rect.rows = 2;
  rect.cols = 3;
  rect.row_ptr = {0, 0, 0};
  EXPECT_THROW(thermal::SparseCholesky{rect}, std::invalid_argument);

  // Negative diagonal: symmetric but not positive definite.
  thermal::CsrMatrix indefinite;
  indefinite.rows = 1;
  indefinite.cols = 1;
  indefinite.row_ptr = {0, 1};
  indefinite.col_idx = {0};
  indefinite.values = {-1.0};
  EXPECT_THROW(thermal::SparseCholesky{indefinite}, std::runtime_error);
}

// ------------------------------------------------------------ dispatch

// Under auto the crossover is the DESIGN.md section 17 measurement:
// the single-core model (28 nodes) steps dense, the 4-core die (82
// nodes) sparse, and the switch sits at 64 nodes.
TEST(SparseDispatch, ModeAndCrossoverControlThepredicate) {
  {
    SparseModeGuard on(thermal::SparseMode::kOn);
    EXPECT_TRUE(thermal::use_sparse_step(1));
  }
  {
    SparseModeGuard off(thermal::SparseMode::kOff);
    EXPECT_FALSE(thermal::use_sparse_step(1'000'000));
  }
  {
    SparseModeGuard autod(thermal::SparseMode::kAuto);
    EXPECT_EQ(thermal::kSparseCrossoverNodes, 64u);
    EXPECT_FALSE(thermal::use_sparse_step(63));
    EXPECT_TRUE(thermal::use_sparse_step(64));
    const thermal::ThermalModel one_core = thermal::build_thermal_model(
        floorplan::multicore_floorplan(1), thermal::Package{});
    EXPECT_EQ(one_core.network.size(), 28u);
    EXPECT_FALSE(thermal::use_sparse_step(one_core.network.size()));
    const thermal::ThermalModel four_core = thermal::build_thermal_model(
        floorplan::multicore_floorplan(4), thermal::Package{});
    EXPECT_EQ(four_core.network.size(), 82u);
    EXPECT_TRUE(thermal::use_sparse_step(four_core.network.size()));
  }
  EXPECT_STREQ(thermal::sparse_mode_name(thermal::SparseMode::kAuto), "auto");
  EXPECT_STREQ(thermal::sparse_mode_name(thermal::SparseMode::kOn), "on");
  EXPECT_STREQ(thermal::sparse_mode_name(thermal::SparseMode::kOff), "off");
}

// --------------------------------- full-run sparse-vs-dense tolerance

/// Runs one fused-BE solver to `steps` under the given dispatch mode and
/// returns its final temperatures; `init` reports the post-steady-state
/// initial temperatures so the test can bound the init deviation too.
thermal::Vector run_fused(const thermal::RcNetwork& net,
                          const thermal::Vector& power, double dt_s,
                          int steps, thermal::SparseMode mode,
                          thermal::Vector* init) {
  SparseModeGuard guard(mode);
  thermal::TransientSolver solver(net, util::Celsius(45.0),
                                  thermal::Scheme::kFusedBE);
  solver.initialize_steady_state(power);
  if (init != nullptr) *init = solver.temperatures();
  // Halved power from the steady state gives a real transient to track.
  thermal::Vector half = power;
  for (double& w : half) w *= 0.5;
  for (int i = 0; i < steps; ++i) solver.step(half, util::Seconds(dt_s));
  EXPECT_EQ(solver.fused_guard_trips(), 0u);
  EXPECT_EQ(solver.sparse_path(), mode == thermal::SparseMode::kOn);
  return solver.temperatures();
}

// The acceptance bound: over randomized floorplans crossed with the
// rounded-dt set, a full sparse run ends within 1e-9 degC of its dense
// twin, and the steady-state inits agree to round-off.
class SparseVsDenseSweep : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDenseSweep, FullRunWithin1e9OfDense) {
  util::Rng rng(9000 + GetParam());
  const std::size_t nodes = 20 + rng.below(180);
  const thermal::RcNetwork net = random_network(rng, nodes);
  const thermal::Vector power = random_power(rng, nodes);
  for (const double dt : {3.3e-6, 1e-5, 1e-4}) {
    const double rounded = thermal::round_step_dt(dt);
    thermal::Vector dense_init;
    thermal::Vector sparse_init;
    const thermal::Vector dense = run_fused(
        net, power, rounded, 500, thermal::SparseMode::kOff, &dense_init);
    const thermal::Vector sparse = run_fused(
        net, power, rounded, 500, thermal::SparseMode::kOn, &sparse_init);
    for (std::size_t i = 0; i < nodes; ++i) {
      EXPECT_NEAR(sparse_init[i], dense_init[i], 1e-9)
          << "steady init, node " << i << ", dt " << rounded;
      EXPECT_NEAR(sparse[i], dense[i], 1e-9)
          << "node " << i << ", dt " << rounded;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVsDenseSweep, ::testing::Range(0, 6));

// Same bound on the model the paper's many-core figures step: the
// 16-core die (the size alloc_test's sparse-step case warms).
TEST(SparseVsDense, SixteenCoreDieFullRunWithin1e9) {
  const auto fp = floorplan::multicore_floorplan(16);
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  const std::size_t n = model.network.size();
  thermal::Vector power(n, 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 0.08;
  const double dt = thermal::round_step_dt(3.3e-6);
  const thermal::Vector dense = run_fused(
      model.network, power, dt, 2000, thermal::SparseMode::kOff, nullptr);
  const thermal::Vector sparse = run_fused(
      model.network, power, dt, 2000, thermal::SparseMode::kOn, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sparse[i], dense[i], 1e-9) << "node " << i;
  }
}

// ------------------------------------------------- guard-trip fallback

// A poisoned sparse step must trip the divergence guard, fall back to
// the LU reference within the same step, and keep the whole trajectory
// bit-identical to a pure-LU twin (the fallback *is* the LU path).
TEST(SparseGuard, TripFallsBackToLuBitIdentical) {
  SparseModeGuard guard(thermal::SparseMode::kOn);
  const auto fp = floorplan::multicore_floorplan(4);
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  const std::size_t n = model.network.size();
  thermal::Vector power(n, 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 0.1;
  thermal::Vector start(n, 45.0);
  for (std::size_t i = 0; i < n; ++i) start[i] += 0.01 * double(i % 7);

  thermal::TransientSolver poisoned(model.network, util::Celsius(45.0),
                                    thermal::Scheme::kFusedBE);
  thermal::TransientSolver lu_twin(model.network, util::Celsius(45.0),
                                   thermal::Scheme::kBackwardEuler);
  ASSERT_TRUE(poisoned.sparse_path());
  poisoned.set_temperatures(start);
  lu_twin.set_temperatures(start);
  poisoned.inject_fused_fault_for_test();
  for (int i = 0; i < 200; ++i) {
    poisoned.step(power, util::Seconds(1e-4));
    lu_twin.step(power, util::Seconds(1e-4));
  }
  EXPECT_EQ(poisoned.fused_guard_trips(), 1u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(poisoned.temperatures()[i], lu_twin.temperatures()[i])
        << "node " << i;
  }
}

// ----------------------------------- multicore width x sparse identity

// The intra-run parallelism contract must survive the sparse path: a
// 4-core hybrid-DTM run pinned to sparse stepping is bit-identical at
// 1, 4 and 8 pool workers (mirrors Multicore.BitIdenticalAcrossWorkerWidths,
// which runs whatever dispatch HYDRA_SPARSE picks).
TEST(SparseMulticore, BitIdenticalAcrossWorkerWidths) {
  SparseModeGuard guard(thermal::SparseMode::kOn);
  const auto run_at_width = [](std::size_t threads) {
    sim::SimConfig cfg;
    cfg.time_scale = 150.0;
    cfg.thermal_interval_cycles = 2'000;
    cfg.warmup_instructions = 200'000;
    cfg.run_instructions = 300'000;
    cfg.thresholds.trigger = util::Celsius(70.0);
    cfg.thresholds.emergency = util::Celsius(74.0);
    cfg.multicore.cores = 4;
    cfg.multicore.threads = threads;
    cfg.multicore.workload_threads = 3;
    cfg.multicore.migration = true;
    sim::MulticoreSystem system(
        workload::spec2000_profile("crafty"), cfg,
        [cfg] {
          return sim::make_policy(sim::PolicyKind::kHybrid,
                                  sim::PolicyParams{}, cfg);
        },
        "Hyb");
    return system.run();
  };
  const sim::MulticoreResult a = run_at_width(1);
  const sim::MulticoreResult b = run_at_width(4);
  const sim::MulticoreResult c = run_at_width(8);
  EXPECT_EQ(sim::serialize_run_result(a.aggregate),
            sim::serialize_run_result(b.aggregate));
  EXPECT_EQ(sim::serialize_run_result(a.aggregate),
            sim::serialize_run_result(c.aggregate));
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t t = 0; t < a.per_core.size(); ++t) {
    EXPECT_EQ(a.per_core[t].cycles, b.per_core[t].cycles) << t;
    EXPECT_EQ(a.per_core[t].instructions, c.per_core[t].instructions) << t;
    EXPECT_DOUBLE_EQ(a.per_core[t].max_true_celsius,
                     b.per_core[t].max_true_celsius)
        << t;
  }
}

}  // namespace
}  // namespace hydra
