#include "thermal/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HYDRA_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define HYDRA_SIMD_NEON 1
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

#if defined(HYDRA_SIMD_X86)

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

#endif  // HYDRA_SIMD_X86

// ---------------------------------------------------------------------------
// NEON backend (AArch64 baseline — always available there). Two 2-lane
// registers stand in for the one 4-lane AVX2 register: [s0 s1] and
// [s2 s3]. vfmaq_f64 is a correctly rounded fma per lane, so the
// per-class arithmetic and the (s0+s2)+(s1+s3) reduction match the
// scalar reference bit for bit.

#if defined(HYDRA_SIMD_NEON)

void matvec_neon(const double* a, std::size_t rows, std::size_t cols,
                 const double* x, double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a + r * cols;
    float64x2_t s01 = vdupq_n_f64(0.0);
    float64x2_t s23 = vdupq_n_f64(0.0);
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      s01 = vfmaq_f64(s01, vld1q_f64(row + c), vld1q_f64(x + c));
      s23 = vfmaq_f64(s23, vld1q_f64(row + c + 2), vld1q_f64(x + c + 2));
    }
    double s[kLaneWidth];
    vst1q_f64(s, s01);
    vst1q_f64(s + 2, s23);
    for (; c < cols; ++c) s[c & 3] = std::fma(row[c], x[c], s[c & 3]);
    y[r] = (s[0] + s[2]) + (s[1] + s[3]);
  }
}

// AArch64 has no gather load, so the NEON gather_dot is the scalar
// class walk (vfma via std::fma is one instruction there).

#endif  // HYDRA_SIMD_NEON

Backend detect_backend() {
#if defined(HYDRA_SIMD_NEON)
  return Backend::kNeon;
#elif defined(HYDRA_SIMD_X86)
  return cpu_has_avx2_fma() ? Backend::kAvx2 : Backend::kScalar;
#else
  return Backend::kScalar;
#endif
}

Backend sanitize(Backend b) {
  return backend_available(b) ? b : Backend::kScalar;
}

Backend resolve_startup_backend() {
  const char* env = std::getenv("HYDRA_SIMD");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return Backend::kScalar;
    if (std::strcmp(env, "avx2") == 0) return sanitize(Backend::kAvx2);
    if (std::strcmp(env, "neon") == 0) return sanitize(Backend::kNeon);
    return Backend::kScalar;  // unknown value: the safe, portable twin
  }
  return detect_backend();
}

std::atomic<Backend>& backend_slot() {
  static std::atomic<Backend> slot{resolve_startup_backend()};
  return slot;
}

}  // namespace

bool backend_available(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(HYDRA_SIMD_X86)
      return cpu_has_avx2_fma();
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(HYDRA_SIMD_NEON)
      return true;
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
  backend_slot().store(sanitize(b), std::memory_order_relaxed);
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "?";
}

PackedMatrix::PackedMatrix(std::size_t rows, std::size_t cols,
                           const double* row_major)
    : rows_(rows), cols_(cols), stride_(padded_size(cols)),
      data_(rows * stride_, 0.0) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(&data_[r * stride_], row_major + r * cols,
                cols * sizeof(double));
  }
}

void matvec(const double* a, std::size_t rows, std::size_t cols,
            const double* x, double* y) {
  switch (active_backend()) {
#if defined(HYDRA_SIMD_X86)
    case Backend::kAvx2:
      matvec_avx2(a, rows, cols, x, y);
      return;
#endif
#if defined(HYDRA_SIMD_NEON)
    case Backend::kNeon:
      matvec_neon(a, rows, cols, x, y);
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
#if defined(HYDRA_SIMD_X86)
    case Backend::kAvx2:
      return gather_dot_avx2(vals, idx, nnz, x);
#endif
    default:
      return gather_dot_scalar(vals, idx, nnz, x);
  }
}

}  // namespace hydra::thermal::simd
