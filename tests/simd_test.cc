// SIMD backend bit-identity tests.
//
// The contract under test (thermal/simd.h): every backend — scalar and
// AVX2 — performs the identical sequence of correctly rounded
// fused multiply-adds per output element ("virtual four lanes"), so
// kernels and full System runs produce bit-identical results regardless
// of which backend executes them.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <random>
#include <vector>

#include "sim/experiment.h"
#include "sim/system.h"
#include "thermal/simd.h"
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

}  // namespace
}  // namespace hydra
