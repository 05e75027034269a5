// SIMD backend bit-identity tests.
//
// The contract under test (thermal/simd.h): every backend — scalar and
// AVX2 — performs the identical sequence of correctly rounded
// fused multiply-adds per output element ("virtual four lanes"), so
// kernels, full System runs and many-core die runs produce bit-identical
// results regardless of which backend executes them. Each twin pins the
// scalar reference in process, so no test needs a scalar-only host.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "floorplan/multicore.h"
#include "sim/experiment.h"
#include "sim/multicore.h"
#include "sim/system.h"
#include "thermal/model_builder.h"
#include "thermal/simd.h"
#include "thermal/sparse.h"
#include "util/fields.h"
#include "workload/spec_profiles.h"

namespace hydra {
namespace {

namespace simd = thermal::simd;

// Restores the dispatch backend on scope exit so one test flipping it
// can never leak into the rest of the process.
struct BackendGuard {
  simd::Backend saved = simd::active_backend();
  ~BackendGuard() { simd::set_backend_for_test(saved); }
};

// The best non-scalar backend this build/CPU can run, if any.
std::optional<simd::Backend> native_backend() {
  if (simd::backend_available(simd::Backend::kAvx2)) {
    return simd::Backend::kAvx2;
  }
  return std::nullopt;
}

std::vector<double> random_values(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

// ------------------------------------------------------------- kernels

TEST(SimdKernel, PaddedSizeRoundsUpToLaneMultiple) {
  EXPECT_EQ(simd::padded_size(0), 0u);
  EXPECT_EQ(simd::padded_size(1), 4u);
  EXPECT_EQ(simd::padded_size(4), 4u);
  EXPECT_EQ(simd::padded_size(5), 8u);
  EXPECT_EQ(simd::padded_size(17), 20u);
}

TEST(SimdKernel, PackedMatrixPadsRowsWithExactZeros) {
  const std::size_t rows = 3, cols = 5;
  std::mt19937 rng(42);
  const std::vector<double> a = random_values(rows * cols, rng);
  const simd::PackedMatrix m(rows, cols, a.data());
  EXPECT_EQ(m.rows(), rows);
  EXPECT_EQ(m.cols(), cols);
  EXPECT_EQ(m.stride(), simd::padded_size(cols));
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = m.row(r);
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(row[c], a[r * cols + c]);
    }
    for (std::size_t c = cols; c < m.stride(); ++c) {
      EXPECT_EQ(row[c], 0.0) << "padding must be exact zero";
    }
  }
}

// Scalar vs the native vector backend over every awkward shape: sizes
// that are not lane multiples, single rows/columns, empty matrices.
// EXPECT_EQ on doubles is exact — this is bit identity, not tolerance.
TEST(SimdKernel, MatvecBitIdenticalAcrossBackends) {
  const std::optional<simd::Backend> native = native_backend();
  if (!native) {
    GTEST_SKIP() << "no vector backend available on this CPU";
  }
  BackendGuard guard;
  std::mt19937 rng(1234);
  const std::size_t shapes[][2] = {{0, 0}, {1, 1}, {1, 7},  {7, 1},
                                   {2, 3}, {3, 5}, {4, 4},  {5, 9},
                                   {8, 8}, {9, 13}, {16, 16}, {33, 40}};
  for (const auto& shape : shapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    const std::vector<double> a = random_values(rows * cols, rng);
    const std::vector<double> x = random_values(cols, rng);
    std::vector<double> y_scalar(rows, -1.0), y_native(rows, -2.0);

    simd::set_backend_for_test(simd::Backend::kScalar);
    simd::matvec(a.data(), rows, cols, x.data(), y_scalar.data());
    simd::set_backend_for_test(*native);
    simd::matvec(a.data(), rows, cols, x.data(), y_native.data());

    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(y_scalar[r], y_native[r])
          << rows << "x" << cols << " row " << r;
    }
  }
}

// The sparse substitutions' kernel, scalar vs native, at every term
// count from 0 to 33: each tail length after the 4-wide chunks, with
// random int32 indices (repeats included) into one shared x.
TEST(SimdKernel, GatherDotBitIdenticalAcrossBackends) {
  const std::optional<simd::Backend> native = native_backend();
  if (!native) {
    GTEST_SKIP() << "no vector backend available on this CPU";
  }
  BackendGuard guard;
  std::mt19937 rng(4321);
  const std::vector<double> x = random_values(64, rng);
  std::uniform_int_distribution<std::int32_t> pick(0, 63);
  for (std::size_t nnz = 0; nnz <= 33; ++nnz) {
    const std::vector<double> vals = random_values(nnz, rng);
    std::vector<std::int32_t> idx(nnz);
    for (std::int32_t& i : idx) i = pick(rng);

    simd::set_backend_for_test(simd::Backend::kScalar);
    const double scalar =
        simd::gather_dot(vals.data(), idx.data(), nnz, x.data());
    simd::set_backend_for_test(*native);
    const double vec = simd::gather_dot(vals.data(), idx.data(), nnz, x.data());
    EXPECT_EQ(scalar, vec) << "nnz " << nnz;
  }
}

// Packed (padded-row) kernel vs the general kernel on the same data:
// padding terms are exact fma no-ops, so results agree bitwise.
TEST(SimdKernel, PackedMatvecMatchesUnpacked) {
  BackendGuard guard;
  std::mt19937 rng(77);
  for (const std::size_t n : {1u, 3u, 5u, 12u, 18u}) {
    const std::vector<double> a = random_values(n * n, rng);
    const simd::PackedMatrix m(n, n, a.data());
    std::vector<double> x_pad(m.stride(), 0.0);
    const std::vector<double> x = random_values(n, rng);
    for (std::size_t i = 0; i < n; ++i) x_pad[i] = x[i];

    std::vector<double> y_ref(n), y_packed(n);
    for (const simd::Backend b :
         {simd::Backend::kScalar, simd::active_backend()}) {
      simd::set_backend_for_test(b);
      simd::matvec(a.data(), n, n, x.data(), y_ref.data());
      simd::packed_matvec(m, x_pad.data(), y_packed.data());
      for (std::size_t r = 0; r < n; ++r) {
        EXPECT_EQ(y_ref[r], y_packed[r]) << "n=" << n << " row " << r;
      }
    }
  }
}

// ------------------------------------------------------ full-run twins

sim::SimConfig short_config() {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.run_instructions = 60'000;
  cfg.warmup_instructions = 20'000;
  return cfg;
}

// A full hybrid-DTM System run under the scalar backend vs the native
// vector backend: every RunResult field must be bit-identical.
TEST(SimdTwin, FullRunBitIdenticalScalarVsVector) {
  const std::optional<simd::Backend> native = native_backend();
  if (!native) {
    GTEST_SKIP() << "no vector backend available on this CPU";
  }
  BackendGuard guard;
  const sim::SimConfig cfg = short_config();
  const workload::WorkloadProfile profile =
      workload::spec2000_profile("gzip");

  simd::set_backend_for_test(simd::Backend::kScalar);
  sim::System scalar_sys(
      profile, cfg, sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg));
  const sim::RunResult scalar = scalar_sys.run();

  simd::set_backend_for_test(*native);
  sim::System vector_sys(
      profile, cfg, sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg));
  const sim::RunResult vec = vector_sys.run();

  EXPECT_EQ(util::diff_fields(scalar, vec), "");
}

// The same twin on a 4-core die with three busy tiles under Hyb, threads
// migrating. Its 82 nodes are past the sparse crossover, so the
// steady-state solve and every thermal step run the LDL^T substitutions
// on gather_dot. (Without migration this run does not notice a swapped
// reduction order in the AVX2 gather_dot; with it, it does.)
TEST(SimdTwin, DieRunBitIdenticalScalarVsVector) {
  const std::optional<simd::Backend> native = native_backend();
  if (!native) {
    GTEST_SKIP() << "no vector backend available on this CPU";
  }
  BackendGuard guard;
  sim::SimConfig cfg;
  cfg.time_scale = 150.0;
  cfg.thermal_interval_cycles = 2'000;
  cfg.warmup_instructions = 100'000;
  cfg.run_instructions = 200'000;
  cfg.thresholds.trigger = util::Celsius(70.0);
  cfg.thresholds.emergency = util::Celsius(74.0);
  cfg.multicore.cores = 4;
  cfg.multicore.workload_threads = 3;
  cfg.multicore.migration = true;
  ASSERT_TRUE(thermal::use_sparse_step(
      thermal::build_thermal_model(floorplan::multicore_floorplan(4),
                                   cfg.package)
          .network.size()));
  const auto run_die = [&cfg](simd::Backend b) {
    simd::set_backend_for_test(b);
    sim::MulticoreSystem system(
        workload::spec2000_profile("crafty"), cfg,
        [cfg] {
          return sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg);
        },
        "Hyb");
    return system.run();
  };
  const sim::MulticoreResult scalar = run_die(simd::Backend::kScalar);
  const sim::MulticoreResult vec = run_die(*native);

  EXPECT_EQ(util::diff_fields(scalar.aggregate, vec.aggregate), "");
  ASSERT_EQ(scalar.per_core.size(), vec.per_core.size());
  for (std::size_t t = 0; t < scalar.per_core.size(); ++t) {
    const sim::CoreRunStats& a = scalar.per_core[t];
    const sim::CoreRunStats& b = vec.per_core[t];
    EXPECT_EQ(a.instructions, b.instructions) << "core " << t;
    EXPECT_EQ(a.cycles, b.cycles) << "core " << t;
    EXPECT_EQ(a.ipc, b.ipc) << "core " << t;
    EXPECT_EQ(a.max_true_celsius, b.max_true_celsius) << "core " << t;
    EXPECT_EQ(a.mean_gate_fraction, b.mean_gate_fraction) << "core " << t;
    EXPECT_EQ(a.dvs_low_fraction, b.dvs_low_fraction) << "core " << t;
    EXPECT_EQ(a.occupied_fraction, b.occupied_fraction) << "core " << t;
    EXPECT_EQ(a.dvs_transitions, b.dvs_transitions) << "core " << t;
    EXPECT_EQ(a.migrations_in, b.migrations_in) << "core " << t;
    EXPECT_EQ(a.migrations_out, b.migrations_out) << "core " << t;
  }
}

}  // namespace
}  // namespace hydra
