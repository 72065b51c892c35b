// Public kernel entry points. The sigmoid machinery and the *ScalarRef twins
// live here; the dense kernels themselves dispatch through the runtime-
// selected backend table (kernel_backend.h -- scalar/avx2/avx512/neon, one TU
// each). The fixed-order bodies that used to be inline here moved verbatim to
// kernels_generic.h, where kernels_scalar.cc instantiates them under the base
// architecture flags as the `scalar` backend.
#include "numeric/kernels.h"

#include <atomic>
#include <cmath>

#include "numeric/kernel_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"

namespace tg::kernels {
namespace {

// Sigmoid mode word: 0 = uninitialized, 1 = tabulated, 2 = exact.
std::atomic<int> g_sigmoid_mode{0};

int InitSigmoidModeFromEnv() { return EnvFlag("TG_EXACT_SIGMOID") ? 2 : 1; }

// Resolves the knob at start-up, so a malformed value fails before any work.
[[maybe_unused]] const bool g_sigmoid_env_read = (GetSigmoidMode(), true);

// Midpoint-sampled sigmoid table over [-kSigmoidClip, kSigmoidClip]. Bucket
// width 2 * clip / size; with clip 8 and 4096 entries the midpoint error is
// bounded by (width / 2) * max|sigmoid'| = (1/256) / 2 / 4 < 5e-4, and the
// 0/1 clamp outside contributes sigmoid(-8) < 3.4e-4.
struct SigmoidTable {
  double values[kSigmoidTableSize];
  SigmoidTable() {
    const double width = 2.0 * kSigmoidClip / static_cast<double>(kSigmoidTableSize);
    for (size_t i = 0; i < kSigmoidTableSize; ++i) {
      const double x =
          -kSigmoidClip + (static_cast<double>(i) + 0.5) * width;
      values[i] = ExactSigmoid(x);
    }
  }
};

const SigmoidTable& Table() {
  static const SigmoidTable table;
  return table;
}

// Per-kernel invocation counters for the ISSUE-level kernels, resolved once
// per site and gated on MetricsEnabled so disabled runs pay one predictable
// branch per call.
#define TG_COUNT_KERNEL(event)                                        \
  do {                                                                \
    if (obs::MetricsEnabled()) {                                      \
      static obs::Counter& tg_counter =                               \
          obs::MetricsRegistry::Instance().GetCounter(                \
              "numeric.kernel." event ".calls");                      \
      tg_counter.Increment();                                         \
    }                                                                 \
  } while (false)

}  // namespace

SigmoidMode GetSigmoidMode() {
  int mode = g_sigmoid_mode.load(std::memory_order_relaxed);
  if (mode == 0) {
    mode = InitSigmoidModeFromEnv();
    int expected = 0;
    g_sigmoid_mode.compare_exchange_strong(expected, mode,
                                           std::memory_order_relaxed);
  }
  return mode == 2 ? SigmoidMode::kExact : SigmoidMode::kTabulated;
}

void SetSigmoidMode(SigmoidMode mode) {
  g_sigmoid_mode.store(mode == SigmoidMode::kExact ? 2 : 1,
                       std::memory_order_relaxed);
}

double ExactSigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

double TabulatedSigmoid(double x) {
  if (x >= kSigmoidClip) return 1.0;
  if (x < -kSigmoidClip) return 0.0;
  const double scale =
      static_cast<double>(kSigmoidTableSize) / (2.0 * kSigmoidClip);
  size_t index = static_cast<size_t>((x + kSigmoidClip) * scale);
  if (index >= kSigmoidTableSize) index = kSigmoidTableSize - 1;
  return Table().values[index];
}

double TrainingSigmoid(double x) {
  return GetSigmoidMode() == SigmoidMode::kExact ? ExactSigmoid(x)
                                                 : TabulatedSigmoid(x);
}

// --- Reductions --------------------------------------------------------------

double Dot(const double* a, const double* b, size_t n) {
  TG_COUNT_KERNEL("dot");
  return ActiveBackend().dot(a, b, n);
}

double DotScalarRef(const double* a, const double* b, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < main; ++i) acc[i & 3] += a[i] * b[i];
  double total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (size_t i = main; i < n; ++i) total += a[i] * b[i];
  return total;
}

double Sum(const double* a, size_t n) {
  TG_COUNT_KERNEL("sum");
  return ActiveBackend().sum(a, n);
}

double SumScalarRef(const double* a, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < main; ++i) acc[i & 3] += a[i];
  double total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (size_t i = main; i < n; ++i) total += a[i];
  return total;
}

// --- Elementwise -------------------------------------------------------------

void Add(double* y, const double* x, size_t n) { ActiveBackend().add(y, x, n); }

void Sub(double* y, const double* x, size_t n) { ActiveBackend().sub(y, x, n); }

void Mul(double* y, const double* x, size_t n) { ActiveBackend().mul(y, x, n); }

void Scale(double* y, double s, size_t n) { ActiveBackend().scale(y, s, n); }

void Axpy(double alpha, const double* x, double* y, size_t n) {
  TG_COUNT_KERNEL("axpy");
  ActiveBackend().axpy(alpha, x, y, n);
}

void AxpyScalarRef(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAdd(double* y, double alpha, double beta, const double* x,
              size_t n) {
  TG_COUNT_KERNEL("scale_add");
  ActiveBackend().scale_add(y, alpha, beta, x, n);
}

void ScaleAddScalarRef(double* y, double alpha, double beta, const double* x,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = alpha * y[i] + beta * x[i];
}

void MulAdd(double* z, const double* x, const double* y, size_t n) {
  TG_COUNT_KERNEL("mul_add");
  ActiveBackend().mul_add(z, x, y, n);
}

void MulAddScalarRef(double* z, const double* x, const double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) z[i] += x[i] * y[i];
}

// --- Fused skip-gram pair update --------------------------------------------

double FusedDotSigmoidUpdate(const double* w, double* c, double* center_grad,
                             size_t n, double label, double lr) {
  TG_COUNT_KERNEL("fused_update");
  return ActiveBackend().fused_dot_sigmoid_update(w, c, center_grad, n, label,
                                                  lr);
}

double FusedDotSigmoidUpdateScalarRef(const double* w, double* c,
                                      double* center_grad, size_t n,
                                      double label, double lr) {
  const double g = (label - TrainingSigmoid(DotScalarRef(w, c, n))) * lr;
  for (size_t i = 0; i < n; ++i) {
    const double ci = c[i];
    center_grad[i] += g * ci;
    c[i] = ci + g * w[i];
  }
  return g;
}

}  // namespace tg::kernels
