// Sparse solve path for the thermal RC networks (DESIGN.md section 17).
//
// HotSpot-class RC networks are intrinsically sparse: a die block
// couples only to its lateral neighbours and its vertical package
// stack, so the conductance matrix G of an N-core die has O(n) nonzeros
// while the dense fused-BE operator is a full n x n inverse. This
// module provides the CSR matrix type, a sparse LDL^T (Cholesky)
// factorisation with a fill-reducing minimum-degree ordering, and the
// HYDRA_SPARSE dispatch policy that decides when the solver should
// factorise-once + substitute per step instead of running the dense
// fused two-matvec path.
//
// Why LDL^T applies: G is a weighted graph Laplacian plus a nonnegative
// ambient-tie diagonal, hence symmetric positive semidefinite, and the
// ambient ties make it strictly positive definite; the step matrix
// C/dt + G adds a strictly positive diagonal on top. SPD matrices admit
// A = L D L^T with unit-lower-triangular L and positive D — no pivoting
// needed, so the factor's sparsity is governed purely by the elimination
// order, which the minimum-degree preorder keeps near O(n) for these
// stencil-plus-star graphs.
//
// The triangular substitutions run on thermal::simd::gather_dot, so the
// sparse path inherits the virtual-lane bit-identity contract: results
// are bit-identical across the scalar and AVX2 backends. Solving is
// read-only and allocation-free (caller-provided scratch), so one
// factorisation serves many threads concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "thermal/linalg.h"

namespace hydra::thermal {

/// Compressed sparse row matrix. Column indices are int32 so the AVX2
/// gather kernels can consume them directly; thermal models are far
/// below 2^31 nodes.
struct CsrMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> row_ptr;   ///< rows + 1 entries
  std::vector<std::int32_t> col_idx;  ///< ascending within each row
  std::vector<double> values;

  std::size_t nnz() const { return values.size(); }

  /// y = A x via one gather_dot per row. `y` must not alias `x`.
  void multiply_into(const double* x, double* y) const;

  /// Dense expansion — validation/tests only.
  Matrix to_dense() const;
};

/// Sparse LDL^T factorisation of a symmetric positive definite CSR
/// matrix: P A P^T = L D L^T with P a fill-reducing minimum-degree
/// permutation computed internally. Solving is thread-safe (the factor
/// is immutable) and allocation-free with caller-provided scratch.
class SparseCholesky {
 public:
  /// Factorise `a` (full symmetric CSR, both triangles present).
  /// Throws std::invalid_argument on a non-square input and
  /// std::runtime_error when a pivot is non-positive or non-finite
  /// (matrix not positive definite) — callers fall back to dense LU.
  explicit SparseCholesky(const CsrMatrix& a);

  std::size_t size() const { return n_; }
  /// Nonzeros in the strictly-lower factor L (fill-in metric).
  std::size_t factor_nnz() const { return lcol_row_.size(); }

  /// Solve A x = b. `b`, `x` and `work` are size() arrays; `work` is
  /// scratch and must not alias `b` (x may alias b). Arithmetic per
  /// element follows the simd virtual-lane contract, so the result is
  /// bit-identical across backends.
  void solve_into(const double* b, double* x, double* work) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::int32_t> perm_;   ///< new index -> old index
  // L stored twice: by rows (strictly lower; forward solve gathers
  // earlier solution entries) and by columns == rows of L^T (strictly
  // upper view; backward solve gathers later entries). Values agree;
  // both index lists ascend within a row, fixing the gather class walk.
  std::vector<std::size_t> lrow_ptr_;
  std::vector<std::int32_t> lrow_col_;
  std::vector<double> lrow_val_;
  std::vector<std::size_t> lcol_ptr_;
  std::vector<std::int32_t> lcol_row_;
  std::vector<double> lcol_val_;
  std::vector<double> d_;  ///< positive pivots of D
};

/// HYDRA_SPARSE dispatch policy: `auto` (default) switches to the
/// sparse path at the measured crossover node count, `on` forces it for
/// every model, `off` pins the dense fused path (the CI validation-twin
/// leg, mirroring HYDRA_SIMD=scalar). Unknown values read as auto.
enum class SparseMode { kAuto, kOn, kOff };

SparseMode sparse_mode();
const char* sparse_mode_name(SparseMode m);

/// Test seam: override the HYDRA_SPARSE resolution (sparse_test flips
/// modes inside one process to compare the paths).
void set_sparse_mode_for_test(SparseMode m);

/// Node count at or above which `auto` picks the sparse path: the
/// empirical crossover from bench/micro_perf's BM_ThermalFusedStep vs
/// BM_SparseStep (DESIGN.md section 17). The dense fused step still
/// wins at the single-core model's 28 nodes; the sparse substitution is
/// 1.4x faster at the 4-core die's 82 and the gap widens from there.
inline constexpr std::size_t kSparseCrossoverNodes = 64;

/// The dispatch predicate the solver and multicore init consult: should
/// a `nodes`-node model step sparsely?
bool use_sparse_step(std::size_t nodes);

}  // namespace hydra::thermal
