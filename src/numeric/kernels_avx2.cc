// The `avx2` kernel backend: 256-bit AVX2+FMA intrinsics. This TU (alone) is
// compiled with -mavx2 -mfma (see src/CMakeLists.txt); kernel_dispatch.cc
// only selects the table after __builtin_cpu_supports confirms the host, so
// the rest of the binary stays runnable on any x86-64.
//
// Numerics (the documented ulp envelope vs the scalar backend):
//   * Dot / Sum reduce four 256-bit lanes-of-accumulators, so the summation
//     order differs from the scalar kernel order, and FMA contracts the
//     multiply-adds.
//   * Axpy / ScaleAdd / the fused update use FMA per element (one rounding
//     instead of two).
//   * Add / Sub / Mul / Scale perform the same single IEEE operation per
//     element as every other backend: bit-identical by construction.
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>

namespace tg::kernels::internal {
namespace {

inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double total = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double SumAvx2(const double* a, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(a + i + 4));
    acc2 = _mm256_add_pd(acc2, _mm256_loadu_pd(a + i + 8));
    acc3 = _mm256_add_pd(acc3, _mm256_loadu_pd(a + i + 12));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(a + i));
  }
  double total = HorizontalSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += a[i];
  return total;
}

void AddAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void MulAvx2(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void ScaleAvx2(double* y, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

void AxpyAvx2(double alpha, const double* x, double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i,
        _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAddAvx2(double* y, double alpha, double beta, const double* x,
                  size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vb = _mm256_set1_pd(beta);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ay = _mm256_mul_pd(va, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(vb, _mm256_loadu_pd(x + i), ay));
  }
  for (; i < n; ++i) y[i] = alpha * y[i] + beta * x[i];
}

void MulAddAvx2(double* z, const double* x, const double* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(z + i, _mm256_fmadd_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(y + i),
                                            _mm256_loadu_pd(z + i)));
  }
  for (; i < n; ++i) z[i] += x[i] * y[i];
}

double FusedDotSigmoidUpdateAvx2(const double* w, double* c,
                                 double* center_grad, size_t n, double label,
                                 double lr) {
  const double g = (label - TrainingSigmoid(DotAvx2(w, c, n))) * lr;
  const __m256d vg = _mm256_set1_pd(g);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vc = _mm256_loadu_pd(c + i);
    const __m256d vw = _mm256_loadu_pd(w + i);
    _mm256_storeu_pd(center_grad + i,
                     _mm256_fmadd_pd(vg, vc, _mm256_loadu_pd(center_grad + i)));
    _mm256_storeu_pd(c + i, _mm256_fmadd_pd(vg, vw, vc));
  }
  for (; i < n; ++i) {
    const double ci = c[i];
    center_grad[i] += g * ci;
    c[i] = ci + g * w[i];
  }
  return g;
}

const KernelBackend kAvx2Backend = {
    "avx2",
    DotAvx2,
    SumAvx2,
    AddAvx2,
    SubAvx2,
    MulAvx2,
    ScaleAvx2,
    AxpyAvx2,
    ScaleAddAvx2,
    MulAddAvx2,
    // The histogram scatter is a serial dependence chain (bins repeat), so
    // there is nothing to vectorize; the win on this backend is hiding the
    // row-gather latency behind software prefetch. Same adds, same order:
    // bit-identical to the scalar backend.
    FusedDotSigmoidUpdateAvx2,
};

}  // namespace

const KernelBackend* Avx2BackendTable() { return &kAvx2Backend; }

}  // namespace tg::kernels::internal

#endif  // x86
