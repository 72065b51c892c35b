// Math-kernel layer: the dense inner loops shared by the skip-gram trainer,
// the GNN/autograd score and gradient passes, and the Matrix/linalg row
// operations. Each entry point dispatches through a runtime-selected
// KernelBackend table (kernel_backend.h): `scalar` (the fixed-order unrolled
// reference), `avx2`, `avx512`, `neon` -- resolved once per process from the
// TG_ISA env knob ({auto,scalar,avx2,avx512,neon}; auto picks the widest
// backend this binary + CPU supports).
//
// Determinism contract: every backend is a pure function of its inputs, so
// for any FIXED backend a result never depends on the caller or the thread
// count. The `scalar` backend additionally fixes the floating-point
// summation order (the "kernel order" below) and is bit-identical to the
// *ScalarRef twins, which perform the identical arithmetic in straight-line
// scalar code; tests/kernels_test.cc asserts that on adversarial lengths
// (0, 1, dim +/- 1, unaligned tails). Vector backends reassociate reductions
// and contract to FMA, staying within the ulp envelope documented in
// docs/performance.md; Add/Sub/Mul/Scale are bit-identical across ALL
// backends (one IEEE operation per element).
//
// Kernel order for reductions over n elements: four interleaved partial
// accumulators acc[j] (j = i mod 4) over the largest multiple-of-4 prefix,
// combined as (acc0 + acc1) + (acc2 + acc3), then the remaining tail elements
// added sequentially. Elementwise kernels (Add, Axpy, ScaleAdd, ...) touch
// each element independently, so their unrolling is order-irrelevant.
//
// Sigmoid: training hot paths default to a word2vec-style tabulated sigmoid
// (midpoint lookup table over [-kSigmoidClip, kSigmoidClip], exact 0/1 clamp
// outside; max abs error < 1e-3 vs ExactSigmoid, asserted in tests). The
// TG_EXACT_SIGMOID environment variable (any value other than "0"/empty) or
// SetSigmoidMode(SigmoidMode::kExact) escapes back to the exact form. Either
// mode is a pure function of its input, so results stay bit-identical across
// thread counts; switching modes changes numerics like any other hyper
// parameter. See docs/performance.md.
#ifndef TG_NUMERIC_KERNELS_H_
#define TG_NUMERIC_KERNELS_H_

#include <cstddef>

namespace tg::kernels {

// --- Sigmoid -----------------------------------------------------------------

enum class SigmoidMode { kTabulated, kExact };

// Process-wide mode for TrainingSigmoid / FusedDotSigmoidUpdate. Initialized
// from TG_EXACT_SIGMOID at first use; SetSigmoidMode overrides at runtime.
SigmoidMode GetSigmoidMode();
void SetSigmoidMode(SigmoidMode mode);

// Inputs clamp to [-kSigmoidClip, kSigmoidClip] in the tabulated form.
inline constexpr double kSigmoidClip = 8.0;
inline constexpr size_t kSigmoidTableSize = 4096;

// Overflow-safe exact logistic function.
double ExactSigmoid(double x);
// Table lookup (bucket midpoints); exactly 0 / 1 outside the clip range.
double TabulatedSigmoid(double x);
// Dispatches on GetSigmoidMode(). The form used by training hot loops.
double TrainingSigmoid(double x);

// --- Reductions (kernel order; ScalarRef twins are bit-identical) -----------

double Dot(const double* a, const double* b, size_t n);
double DotScalarRef(const double* a, const double* b, size_t n);

double Sum(const double* a, size_t n);
double SumScalarRef(const double* a, size_t n);

// --- Elementwise -------------------------------------------------------------

// y[i] += x[i]
void Add(double* y, const double* x, size_t n);
// y[i] -= x[i]
void Sub(double* y, const double* x, size_t n);
// y[i] *= x[i]
void Mul(double* y, const double* x, size_t n);
// y[i] *= s
void Scale(double* y, double s, size_t n);
// y[i] += alpha * x[i]
void Axpy(double alpha, const double* x, double* y, size_t n);
void AxpyScalarRef(double alpha, const double* x, double* y, size_t n);
// y[i] = alpha * y[i] + beta * x[i]  (axpby; e.g. Adam moment updates)
void ScaleAdd(double* y, double alpha, double beta, const double* x, size_t n);
void ScaleAddScalarRef(double* y, double alpha, double beta, const double* x,
                       size_t n);
// z[i] += x[i] * y[i]  (autograd gradient-accumulate fusion). Vector backends
// may contract the mul+add to FMA (ulp envelope, like Axpy); the scalar
// backend performs the two-rounding mul-then-add sequence, bit-identical to
// the ScalarRef twin. None of the three arrays may alias.
void MulAdd(double* z, const double* x, const double* y, size_t n);
void MulAddScalarRef(double* z, const double* x, const double* y, size_t n);

// --- Fused skip-gram pair update --------------------------------------------

// One positive/negative pair step of skip-gram SGD against center row `w`
// (read-only here) and context row `c`:
//   dot = Dot(w, c)                           (kernel order)
//   g   = (label - TrainingSigmoid(dot)) * lr
//   center_grad[i] += g * c[i]   (pre-update c)
//   c[i]           += g * w[i]
// Returns g so callers can trace/inspect. `w`, `c` and `center_grad` must
// not alias (they come from distinct matrices / a local buffer).
double FusedDotSigmoidUpdate(const double* w, double* c, double* center_grad,
                             size_t n, double label, double lr);
double FusedDotSigmoidUpdateScalarRef(const double* w, double* c,
                                      double* center_grad, size_t n,
                                      double label, double lr);

}  // namespace tg::kernels

#endif  // TG_NUMERIC_KERNELS_H_
