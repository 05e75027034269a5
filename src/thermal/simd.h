// Runtime-dispatched SIMD kernels for the thermal hot loop.
//
// Every kernel the per-step path runs — Matrix::multiply_into, the fused
// backward-Euler step and the sparse substitutions — routes through this
// shim. A backend is picked once at startup (AVX2+FMA on x86-64 when the
// CPU has it, portable scalar otherwise) and can be overridden with
// HYDRA_SIMD=scalar|avx2 for bit-identity testing; requesting an
// unavailable backend falls back to scalar so a pinned CI leg never
// aborts.
//
// Bit-identity contract ("virtual four lanes"): every backend computes a
// dot product as four column-class partial sums — class j accumulates
// the terms of columns c with c % 4 == j, each advanced by a correctly
// rounded fused multiply-add — and reduces them in the fixed tree order
// (s0 + s2) + (s1 + s3). The scalar backend uses std::fma and AVX2 uses
// vfmadd over one 4-lane register; both perform the identical sequence
// of correctly rounded operations per output element, so results are
// bit-identical across backends (the scalar twin is the reference, and
// simd_test asserts the equality down to full RunResults). Padded
// columns hold exact zeros and contribute exact no-op fmas, so the
// packed and unpacked kernels agree bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hydra::thermal::simd {

enum class Backend { kScalar, kAvx2 };

/// Accumulator lane width of the virtual-lane contract (doubles per
/// AVX2 register). Packed rows are padded to multiples of this.
inline constexpr std::size_t kLaneWidth = 4;

/// `n` rounded up to a multiple of kLaneWidth.
inline std::size_t padded_size(std::size_t n) {
  return (n + (kLaneWidth - 1)) & ~(kLaneWidth - 1);
}

/// True when this build/CPU can execute `b`.
bool backend_available(Backend b);

/// The backend the kernels dispatch to. Resolved once: HYDRA_SIMD if set
/// (unavailable or unknown values fall back to scalar), else the best
/// available backend for this CPU.
Backend active_backend();

/// Test seam: force the dispatch (simd_test flips between scalar and the
/// native backend inside one process to prove bit-identity). Requests
/// for an unavailable backend degrade to scalar, like the env override.
void set_backend_for_test(Backend b);

const char* backend_name(Backend b);

/// Row-major matrix with each row zero-padded to a multiple of
/// kLaneWidth columns, so the packed kernels' inner loops are pure
/// stride-1 4-wide FMA with no tail. Built once per FusedStepOperator;
/// plain std::vector storage (the kernels use unaligned loads, which
/// cost nothing on the hardware that has FMA, and an aligned allocator
/// would bypass alloc_test's global operator-new counter).
class PackedMatrix {
 public:
  PackedMatrix() = default;
  /// A `rows` x `cols` matrix of zeros.
  PackedMatrix(std::size_t rows, std::size_t cols);
  /// Pack `rows` x `cols` row-major data (stride == cols).
  PackedMatrix(std::size_t rows, std::size_t cols, const double* row_major);

  /// Element (r, c), c < cols(); the padding stays zero.
  double& at(std::size_t r, std::size_t c) { return data_[r * stride_ + c]; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t stride() const { return stride_; }
  const double* row(std::size_t r) const { return &data_[r * stride_]; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> data_;
};

/// y[r] = sum_c a[r * cols + c] * x[c] for a dense row-major `a`.
/// Handles any shape; tail columns fold into their column class.
/// `y` must not alias `a` or `x`.
void matvec(const double* a, std::size_t rows, std::size_t cols,
            const double* x, double* y);

/// y[r] = sum_c M(r, c) * x[c] over a packed matrix. `x` must have
/// m.stride() entries with the padded tail zeroed; `y` gets m.rows().
void packed_matvec(const PackedMatrix& m, const double* x, double* y);

/// Sparse gather dot product: sum_p vals[p] * x[idx[p]] under the same
/// virtual-lane contract as matvec() — term p joins column class p % 4
/// via a correctly rounded fma and the classes reduce as
/// (s0 + s2) + (s1 + s3). The sparse triangular solves run on this.
/// Indices are int32 so AVX2 can feed them straight to vgatherdpd; the
/// scalar twin walks the same class sequence with std::fma.
double gather_dot(const double* vals, const std::int32_t* idx,
                  std::size_t nnz, const double* x);

}  // namespace hydra::thermal::simd
