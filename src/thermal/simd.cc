#include "thermal/simd.h"

#include <atomic>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HYDRA_X86_SIMD 1
#endif

namespace hydra::thermal::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference backend. The virtual-lane contract in one place:
// column class c % 4 accumulates with a correctly rounded std::fma, and
// the reduction tree is (s0 + s2) + (s1 + s3). Every vector backend
// below performs this exact operation sequence per output element.

void matvec_scalar(const double* a, std::size_t rows, std::size_t cols,
                   const double* x, double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a + r * cols;
    double s[kLaneWidth] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t c = 0; c < cols; ++c) {
      s[c & 3] = std::fma(row[c], x[c], s[c & 3]);
    }
    y[r] = (s[0] + s[2]) + (s[1] + s[3]);
  }
}

double gather_dot_scalar(const double* vals, const std::int32_t* idx,
                         std::size_t nnz, const double* x) {
  double s[kLaneWidth] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t p = 0; p < nnz; ++p) {
    s[p & 3] = std::fma(vals[p], x[idx[p]], s[p & 3]);
  }
  return (s[0] + s[2]) + (s[1] + s[3]);
}

// ---------------------------------------------------------------------------
// AVX2+FMA backend. Compiled with a per-function target attribute so the
// translation unit itself needs no -mavx2 (the binary must still run on
// SSE2-only hosts, where dispatch picks scalar).

#if defined(HYDRA_X86_SIMD)

__attribute__((target("avx2,fma"))) void matvec_avx2(const double* a,
                                                     std::size_t rows,
                                                     std::size_t cols,
                                                     const double* x,
                                                     double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a + r * cols;
    __m256d acc = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(row + c), _mm256_loadu_pd(x + c),
                            acc);
    }
    // Register lane j holds column class j; fold tail columns into
    // their class with the same correctly rounded fma.
    double s[kLaneWidth];
    _mm256_storeu_pd(s, acc);
    for (; c < cols; ++c) s[c & 3] = std::fma(row[c], x[c], s[c & 3]);
    y[r] = (s[0] + s[2]) + (s[1] + s[3]);
  }
}

__attribute__((target("avx2,fma"))) double gather_dot_avx2(
    const double* vals, const std::int32_t* idx, std::size_t nnz,
    const double* x) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t p = 0;
  // The masked gather form with an all-ones mask: identical loads, but
  // unlike the plain intrinsic it has no undefined source operand for
  // -Wmaybe-uninitialized to complain about.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (; p + 4 <= nnz; p += 4) {
    const __m128i id =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + p));
    const __m256d xv =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, id, all, 8);
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(vals + p), xv, acc);
  }
  // Register lane j holds term class j (chunks start at p = 0); fold the
  // tail terms into their class with the same correctly rounded fma.
  double s[kLaneWidth];
  _mm256_storeu_pd(s, acc);
  for (; p < nnz; ++p) s[p & 3] = std::fma(vals[p], x[idx[p]], s[p & 3]);
  return (s[0] + s[2]) + (s[1] + s[3]);
}

bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // HYDRA_X86_SIMD

std::atomic<Backend>& backend_slot() {
  static std::atomic<Backend> slot{backend_available(Backend::kAvx2)
                                       ? Backend::kAvx2
                                       : Backend::kScalar};
  return slot;
}

}  // namespace

bool backend_available(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(HYDRA_X86_SIMD)
      return cpu_has_avx2_fma();
#else
      return false;
#endif
  }
  return false;
}

Backend active_backend() {
  return backend_slot().load(std::memory_order_relaxed);
}

void set_backend_for_test(Backend b) {
  backend_slot().store(backend_available(b) ? b : Backend::kScalar,
                       std::memory_order_relaxed);
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "?";
}

PackedMatrix::PackedMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), stride_(padded_size(cols)),
      data_(rows * stride_, 0.0) {}

PackedMatrix::PackedMatrix(std::size_t rows, std::size_t cols,
                           const double* row_major)
    : PackedMatrix(rows, cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(&data_[r * stride_], row_major + r * cols,
                cols * sizeof(double));
  }
}

void matvec(const double* a, std::size_t rows, std::size_t cols,
            const double* x, double* y) {
  switch (active_backend()) {
#if defined(HYDRA_X86_SIMD)
    case Backend::kAvx2:
      matvec_avx2(a, rows, cols, x, y);
      return;
#endif
    default:
      matvec_scalar(a, rows, cols, x, y);
      return;
  }
}

void packed_matvec(const PackedMatrix& m, const double* x, double* y) {
  // A packed row is an ordinary row of stride() columns whose padding
  // holds exact zeros: fma(0, 0, s) == s, so running the general kernel
  // over the padded width is bit-identical to the unpadded product —
  // and the vector backends never see a tail.
  matvec(m.rows() > 0 ? m.row(0) : nullptr, m.rows(), m.stride(), x, y);
}

double gather_dot(const double* vals, const std::int32_t* idx,
                  std::size_t nnz, const double* x) {
  switch (active_backend()) {
#if defined(HYDRA_X86_SIMD)
    case Backend::kAvx2:
      return gather_dot_avx2(vals, idx, nnz, x);
#endif
    default:
      return gather_dot_scalar(vals, idx, nnz, x);
  }
}

}  // namespace hydra::thermal::simd
