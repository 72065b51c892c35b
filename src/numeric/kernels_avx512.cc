// The `avx512` kernel backend: 512-bit AVX-512F intrinsics. Compiled only
// when the toolchain accepts -mavx512f (see src/CMakeLists.txt) and selected
// only after __builtin_cpu_supports("avx512f") confirms the host.
//
// Same numerics policy as kernels_avx2.cc: reductions and FMA-bearing
// kernels sit inside the documented ulp envelope vs the scalar backend;
// Add/Sub/Mul/Scale are bit-identical across backends.
// Tails under 8 elements use masked loads/stores rather than scalar loops so
// the whole kernel stays in one code shape.
#include "numeric/kernel_backend.h"
#include "numeric/kernels.h"

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <immintrin.h>

namespace tg::kernels::internal {
namespace {

inline __mmask8 TailMask(size_t remaining) {
  return static_cast<__mmask8>((1u << remaining) - 1u);
}

double DotAvx512(const double* a, const double* b, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
  }
  double total = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

double SumAvx512(const double* a, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
    acc1 = _mm512_add_pd(acc1, _mm512_loadu_pd(a + i + 8));
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(a + i));
  }
  double total = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) total += a[i];
  return total;
}

void AddAvx512(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_add_pd(vy, vx));
  }
}

void SubAvx512(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_sub_pd(_mm512_loadu_pd(y + i), _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_sub_pd(vy, vx));
  }
}

void MulAvx512(double* y, const double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_mul_pd(_mm512_loadu_pd(y + i), _mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_mul_pd(vy, vx));
  }
}

void ScaleAvx512(double* y, double s, size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(y + i, _mm512_mul_pd(_mm512_loadu_pd(y + i), vs));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_mul_pd(vy, vs));
  }
}

void AxpyAvx512(double alpha, const double* x, double* y, size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i,
        _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m, _mm512_fmadd_pd(va, vx, vy));
  }
}

void ScaleAddAvx512(double* y, double alpha, double beta, const double* x,
                    size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  const __m512d vb = _mm512_set1_pd(beta);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d ay = _mm512_mul_pd(va, _mm512_loadu_pd(y + i));
    _mm512_storeu_pd(y + i, _mm512_fmadd_pd(vb, _mm512_loadu_pd(x + i), ay));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    _mm512_mask_storeu_pd(y + i, m,
                          _mm512_fmadd_pd(vb, vx, _mm512_mul_pd(va, vy)));
  }
}

void MulAddAvx512(double* z, const double* x, const double* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(z + i, _mm512_fmadd_pd(_mm512_loadu_pd(x + i),
                                            _mm512_loadu_pd(y + i),
                                            _mm512_loadu_pd(z + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vx = _mm512_maskz_loadu_pd(m, x + i);
    const __m512d vy = _mm512_maskz_loadu_pd(m, y + i);
    const __m512d vz = _mm512_maskz_loadu_pd(m, z + i);
    _mm512_mask_storeu_pd(z + i, m, _mm512_fmadd_pd(vx, vy, vz));
  }
}

double FusedDotSigmoidUpdateAvx512(const double* w, double* c,
                                   double* center_grad, size_t n, double label,
                                   double lr) {
  const double g = (label - TrainingSigmoid(DotAvx512(w, c, n))) * lr;
  const __m512d vg = _mm512_set1_pd(g);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d vc = _mm512_loadu_pd(c + i);
    const __m512d vw = _mm512_loadu_pd(w + i);
    _mm512_storeu_pd(center_grad + i,
                     _mm512_fmadd_pd(vg, vc, _mm512_loadu_pd(center_grad + i)));
    _mm512_storeu_pd(c + i, _mm512_fmadd_pd(vg, vw, vc));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d vc = _mm512_maskz_loadu_pd(m, c + i);
    const __m512d vw = _mm512_maskz_loadu_pd(m, w + i);
    const __m512d vcg = _mm512_maskz_loadu_pd(m, center_grad + i);
    _mm512_mask_storeu_pd(center_grad + i, m, _mm512_fmadd_pd(vg, vc, vcg));
    _mm512_mask_storeu_pd(c + i, m, _mm512_fmadd_pd(vg, vw, vc));
  }
  return g;
}

const KernelBackend kAvx512Backend = {
    "avx512",
    DotAvx512,
    SumAvx512,
    AddAvx512,
    SubAvx512,
    MulAvx512,
    ScaleAvx512,
    AxpyAvx512,
    ScaleAddAvx512,
    MulAddAvx512,
    FusedDotSigmoidUpdateAvx512,
};

}  // namespace

const KernelBackend* Avx512BackendTable() { return &kAvx512Backend; }

}  // namespace tg::kernels::internal

#endif  // x86
