#include "numeric/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/skipgram.h"
#include "graph/alias_table.h"
#include "numeric/kernel_backend.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg {
namespace {

// Adversarial lengths around every unroll boundary: empty, single element,
// exact multiples of the 4-wide unroll, one off either side, and large sizes
// with and without tails.
const size_t kLengths[] = {0,  1,  2,  3,  4,   5,   7,   8,    9,    15, 16,
                           17, 31, 63, 64, 65, 127, 128, 129, 1000, 1023};

// Mixed-magnitude values so reordering the summation would actually change
// the result (catches an accidental order change, not just a wrong formula).
std::vector<double> MixedMagnitude(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng->NextUniform(-6.0, 6.0));
    v[i] = rng->NextUniform(-1.0, 1.0) * mag;
  }
  return v;
}

// Restores thread count, sigmoid mode, and kernel backend even when an
// assertion fails. The bit-for-bit tests below assert kernel order, which
// only the scalar backend guarantees, so every test starts pinned to it; the
// backend-matrix tests re-force other backends themselves.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_mode_ = kernels::GetSigmoidMode();
    saved_backend_ = kernels::ActiveBackendName();
    ASSERT_TRUE(kernels::SetActiveBackend("scalar"));
  }
  void TearDown() override {
    SetThreadCount(0);
    kernels::SetSigmoidMode(saved_mode_);
    kernels::SetActiveBackend(saved_backend_);
  }
  kernels::SigmoidMode saved_mode_ = kernels::SigmoidMode::kTabulated;
  std::string saved_backend_ = "scalar";
};

uint64_t BitsOf(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST_F(KernelsTest, DotMatchesScalarRefBitForBit) {
  Rng rng(7);
  for (size_t n : kLengths) {
    const std::vector<double> a = MixedMagnitude(n, &rng);
    const std::vector<double> b = MixedMagnitude(n, &rng);
    EXPECT_EQ(kernels::Dot(a.data(), b.data(), n),
              kernels::DotScalarRef(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST_F(KernelsTest, DotMatchesScalarRefOnUnalignedPointers) {
  Rng rng(11);
  for (size_t n : kLengths) {
    // One extra leading element, then read from data() + 1 so the kernel
    // sees a pointer off the vector's natural alignment.
    const std::vector<double> a = MixedMagnitude(n + 1, &rng);
    const std::vector<double> b = MixedMagnitude(n + 1, &rng);
    EXPECT_EQ(kernels::Dot(a.data() + 1, b.data() + 1, n),
              kernels::DotScalarRef(a.data() + 1, b.data() + 1, n))
        << "n=" << n;
  }
}

TEST_F(KernelsTest, SumMatchesScalarRefBitForBit) {
  Rng rng(13);
  for (size_t n : kLengths) {
    const std::vector<double> a = MixedMagnitude(n + 1, &rng);
    EXPECT_EQ(kernels::Sum(a.data(), n), kernels::SumScalarRef(a.data(), n))
        << "n=" << n;
    EXPECT_EQ(kernels::Sum(a.data() + 1, n),
              kernels::SumScalarRef(a.data() + 1, n))
        << "unaligned n=" << n;
  }
}

TEST_F(KernelsTest, AxpyMatchesScalarRefBitForBit) {
  Rng rng(17);
  for (size_t n : kLengths) {
    const std::vector<double> x = MixedMagnitude(n, &rng);
    const std::vector<double> base = MixedMagnitude(n, &rng);
    const double alpha = rng.NextUniform(-2.0, 2.0);
    std::vector<double> y1 = base;
    std::vector<double> y2 = base;
    kernels::Axpy(alpha, x.data(), y1.data(), n);
    kernels::AxpyScalarRef(alpha, x.data(), y2.data(), n);
    EXPECT_EQ(y1, y2) << "n=" << n;
  }
}

TEST_F(KernelsTest, ScaleAddMatchesScalarRefBitForBit) {
  Rng rng(19);
  for (size_t n : kLengths) {
    const std::vector<double> x = MixedMagnitude(n, &rng);
    const std::vector<double> base = MixedMagnitude(n, &rng);
    const double alpha = rng.NextUniform(-2.0, 2.0);
    const double beta = rng.NextUniform(-2.0, 2.0);
    std::vector<double> y1 = base;
    std::vector<double> y2 = base;
    kernels::ScaleAdd(y1.data(), alpha, beta, x.data(), n);
    kernels::ScaleAddScalarRef(y2.data(), alpha, beta, x.data(), n);
    EXPECT_EQ(y1, y2) << "n=" << n;
  }
}

TEST_F(KernelsTest, FusedDotSigmoidUpdateMatchesScalarRefBitForBit) {
  for (kernels::SigmoidMode mode :
       {kernels::SigmoidMode::kTabulated, kernels::SigmoidMode::kExact}) {
    kernels::SetSigmoidMode(mode);
    Rng rng(23);
    for (size_t n : kLengths) {
      const std::vector<double> w = MixedMagnitude(n, &rng);
      const std::vector<double> c_base = MixedMagnitude(n, &rng);
      const std::vector<double> g_base = MixedMagnitude(n, &rng);
      const double label = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
      const double lr = rng.NextUniform(0.001, 0.05);
      std::vector<double> c1 = c_base, c2 = c_base;
      std::vector<double> g1 = g_base, g2 = g_base;
      const double r1 = kernels::FusedDotSigmoidUpdate(w.data(), c1.data(),
                                                       g1.data(), n, label, lr);
      const double r2 = kernels::FusedDotSigmoidUpdateScalarRef(
          w.data(), c2.data(), g2.data(), n, label, lr);
      EXPECT_EQ(r1, r2) << "n=" << n;
      EXPECT_EQ(c1, c2) << "n=" << n;
      EXPECT_EQ(g1, g2) << "n=" << n;
    }
  }
}

// --- Backend dispatch --------------------------------------------------------

TEST_F(KernelsTest, DispatchKnobsBehave) {
  const std::vector<std::string> names = kernels::AvailableBackendNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");

  // Forcing an unknown backend fails without changing the active table.
  ASSERT_TRUE(kernels::SetActiveBackend("scalar"));
  EXPECT_FALSE(kernels::SetActiveBackend("not-a-backend"));
  EXPECT_STREQ(kernels::ActiveBackendName(), "scalar");

  // Every advertised backend can be forced, reports itself, and "auto"
  // resolves to the widest one (the back of the list).
  for (const std::string& name : names) {
    ASSERT_TRUE(kernels::SetActiveBackend(name)) << name;
    EXPECT_EQ(kernels::ActiveBackendName(), name);
  }
  ASSERT_TRUE(kernels::SetActiveBackend("auto"));
  EXPECT_EQ(kernels::ActiveBackendName(), names.back());

  // Selecting a backend records it in the metrics registry.
  EXPECT_GE(obs::MetricsRegistry::Instance()
                .GetCounter("numeric.backend.scalar")
                .value(),
            1u);
}

// Bit-level anchors captured from the pre-dispatch (seed) kernel layer: the
// scalar backend compiles the same fixed-order bodies under the same base
// architecture flags, so TG_ISA=scalar must keep reproducing these exact
// doubles on every host. A failure here means the exact-mode contract broke.
TEST_F(KernelsTest, ScalarBackendMatchesSeedGoldenBits) {
  Rng rng(20240601);
  const size_t n = 129;
  const std::vector<double> a = MixedMagnitude(n, &rng);
  const std::vector<double> b = MixedMagnitude(n, &rng);
  EXPECT_EQ(BitsOf(kernels::Dot(a.data(), b.data(), n)), 0x41d10a3000996dbdULL);
  EXPECT_EQ(BitsOf(kernels::Sum(a.data(), n)), 0x41372f16629f7b9fULL);

  std::vector<double> y = b;
  kernels::Axpy(0.75, a.data(), y.data(), n);
  EXPECT_EQ(BitsOf(kernels::Sum(y.data(), n)), 0x413843130b2a8f9cULL);
  kernels::ScaleAdd(y.data(), 0.9, -0.1, a.data(), n);
  EXPECT_EQ(BitsOf(kernels::Sum(y.data(), n)), 0x413384754cfcc1afULL);

  kernels::SetSigmoidMode(kernels::SigmoidMode::kTabulated);
  Rng rng2(77);
  std::vector<double> w(n), c(n), grad(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    w[i] = rng2.NextUniform(-1.0, 1.0);
    c[i] = rng2.NextUniform(-1.0, 1.0);
  }
  const double g =
      kernels::FusedDotSigmoidUpdate(w.data(), c.data(), grad.data(), n, 1.0,
                                     0.025);
  EXPECT_EQ(BitsOf(g), 0x3f75d0f73511a4aaULL);
  EXPECT_EQ(BitsOf(kernels::Sum(c.data(), n)), 0xc025737e517762c0ULL);
  EXPECT_EQ(BitsOf(kernels::Sum(grad.data(), n)), 0xbfad5b5d17021b38ULL);
}

constexpr double kEps = 2.220446049250313e-16;  // 2^-52

// The documented reduction envelope (docs/performance.md): a vector backend
// may reassociate a length-n reduction and contract to FMA, but must stay
// within 4 * (n + 16) * eps relative to the sum of absolute terms.
double ReductionTolerance(double abs_sum, size_t n) {
  return 4.0 * static_cast<double>(n + 16) * kEps * abs_sum;
}

TEST_F(KernelsTest, EveryBackendDotAndSumWithinEnvelopeOfScalarRef) {
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(7);
    for (size_t n : kLengths) {
      // One extra leading element so data() + 1 exercises unaligned loads.
      const std::vector<double> a = MixedMagnitude(n + 1, &rng);
      const std::vector<double> b = MixedMagnitude(n + 1, &rng);
      for (size_t off : {size_t{0}, size_t{1}}) {
        double abs_dot = 0.0, abs_sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
          abs_dot += std::abs(a[off + i] * b[off + i]);
          abs_sum += std::abs(a[off + i]);
        }
        EXPECT_NEAR(kernels::Dot(a.data() + off, b.data() + off, n),
                    kernels::DotScalarRef(a.data() + off, b.data() + off, n),
                    ReductionTolerance(abs_dot, n))
            << backend << " n=" << n << " off=" << off;
        EXPECT_NEAR(kernels::Sum(a.data() + off, n),
                    kernels::SumScalarRef(a.data() + off, n),
                    ReductionTolerance(abs_sum, n))
            << backend << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendAxpyScaleAddWithinEnvelopeOfScalarRef) {
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(17);
    for (size_t n : kLengths) {
      const std::vector<double> x = MixedMagnitude(n, &rng);
      const std::vector<double> base = MixedMagnitude(n, &rng);
      const double alpha = rng.NextUniform(-2.0, 2.0);
      const double beta = rng.NextUniform(-2.0, 2.0);

      std::vector<double> y1 = base, y2 = base;
      kernels::Axpy(alpha, x.data(), y1.data(), n);
      kernels::AxpyScalarRef(alpha, x.data(), y2.data(), n);
      for (size_t i = 0; i < n; ++i) {
        // FMA contraction changes each element by at most one rounding of
        // the product term.
        const double tol =
            4.0 * kEps * (std::abs(alpha * x[i]) + std::abs(base[i]));
        EXPECT_NEAR(y1[i], y2[i], tol) << backend << " n=" << n << " i=" << i;
      }

      y1 = base;
      y2 = base;
      kernels::ScaleAdd(y1.data(), alpha, beta, x.data(), n);
      kernels::ScaleAddScalarRef(y2.data(), alpha, beta, x.data(), n);
      for (size_t i = 0; i < n; ++i) {
        const double tol = 4.0 * kEps * (std::abs(alpha * base[i]) +
                                         std::abs(beta * x[i]));
        EXPECT_NEAR(y1[i], y2[i], tol) << backend << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendElementwiseBitIdentical) {
  // Add/Sub/Mul/Scale perform one IEEE operation per element in every
  // backend, so unlike the reductions they carry no envelope: exact equality
  // across the whole matrix of backends and lengths.
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(31);
    for (size_t n : kLengths) {
      const std::vector<double> x = MixedMagnitude(n + 1, &rng);
      const std::vector<double> base = MixedMagnitude(n + 1, &rng);
      const double s = rng.NextUniform(-2.0, 2.0);
      for (size_t off : {size_t{0}, size_t{1}}) {
        std::vector<double> got = base;
        std::vector<double> want = base;
        kernels::Add(got.data() + off, x.data() + off, n);
        for (size_t i = 0; i < n; ++i) want[off + i] += x[off + i];
        EXPECT_EQ(got, want) << backend << " Add n=" << n << " off=" << off;

        got = base;
        want = base;
        kernels::Sub(got.data() + off, x.data() + off, n);
        for (size_t i = 0; i < n; ++i) want[off + i] -= x[off + i];
        EXPECT_EQ(got, want) << backend << " Sub n=" << n << " off=" << off;

        got = base;
        want = base;
        kernels::Mul(got.data() + off, x.data() + off, n);
        for (size_t i = 0; i < n; ++i) want[off + i] *= x[off + i];
        EXPECT_EQ(got, want) << backend << " Mul n=" << n << " off=" << off;

        got = base;
        want = base;
        kernels::Scale(got.data() + off, s, n);
        for (size_t i = 0; i < n; ++i) want[off + i] *= s;
        EXPECT_EQ(got, want) << backend << " Scale n=" << n << " off=" << off;
      }
    }
  }
}

TEST_F(KernelsTest, MulAddScalarMatchesMulThenAddBitForBit) {
  // The scalar backend must perform the unfused two-rounding sequence
  // z[i] += x[i] * y[i]; autograd's TG_ISA=scalar bit-identity (the fused
  // AccumulateGradMulAdd vs a Hadamard temporary) rests on this.
  Rng rng(37);
  for (size_t n : kLengths) {
    const std::vector<double> x = MixedMagnitude(n, &rng);
    const std::vector<double> y = MixedMagnitude(n, &rng);
    const std::vector<double> base = MixedMagnitude(n, &rng);
    std::vector<double> z1 = base, z2 = base;
    kernels::MulAdd(z1.data(), x.data(), y.data(), n);
    kernels::MulAddScalarRef(z2.data(), x.data(), y.data(), n);
    EXPECT_EQ(z1, z2) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      const double want = base[i] + x[i] * y[i];
      EXPECT_EQ(z1[i], want) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelsTest, EveryBackendMulAddWithinEnvelopeOfScalarRef) {
  // Vector backends may contract x*y+z to a single FMA rounding.
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(37);
    for (size_t n : kLengths) {
      const std::vector<double> x = MixedMagnitude(n + 1, &rng);
      const std::vector<double> y = MixedMagnitude(n + 1, &rng);
      const std::vector<double> base = MixedMagnitude(n + 1, &rng);
      for (size_t off : {size_t{0}, size_t{1}}) {
        std::vector<double> z1 = base, z2 = base;
        kernels::MulAdd(z1.data() + off, x.data() + off, y.data() + off, n);
        kernels::MulAddScalarRef(z2.data() + off, x.data() + off,
                                 y.data() + off, n);
        for (size_t i = 0; i < n; ++i) {
          const double tol = 4.0 * kEps * (std::abs(x[off + i] * y[off + i]) +
                                           std::abs(base[off + i]));
          EXPECT_NEAR(z1[off + i], z2[off + i], tol)
              << backend << " n=" << n << " off=" << off << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelsTest, EveryBackendFusedUpdateWithinEnvelopeOfScalarRef) {
  // Exact sigmoid: the tabulated form is a step function, so the envelope
  // difference in the dot could flip a table bucket and amplify into an O(1)
  // difference in g -- a mode question, not a backend bug. Moderate
  // magnitudes keep the dot's absolute error tiny.
  kernels::SetSigmoidMode(kernels::SigmoidMode::kExact);
  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    Rng rng(23);
    for (size_t n : kLengths) {
      std::vector<double> w(n), c_base(n), g_base(n);
      for (size_t i = 0; i < n; ++i) {
        w[i] = rng.NextUniform(-1.0, 1.0);
        c_base[i] = rng.NextUniform(-1.0, 1.0);
        g_base[i] = rng.NextUniform(-1.0, 1.0);
      }
      const double label = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
      const double lr = rng.NextUniform(0.001, 0.05);
      std::vector<double> c1 = c_base, c2 = c_base;
      std::vector<double> g1 = g_base, g2 = g_base;
      const double r1 = kernels::FusedDotSigmoidUpdate(w.data(), c1.data(),
                                                       g1.data(), n, label, lr);
      const double r2 = kernels::FusedDotSigmoidUpdateScalarRef(
          w.data(), c2.data(), g2.data(), n, label, lr);
      EXPECT_NEAR(r1, r2, 1e-10) << backend << " n=" << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(c1[i], c2[i], 1e-10) << backend << " n=" << n << " i=" << i;
        EXPECT_NEAR(g1[i], g2[i], 1e-10) << backend << " n=" << n << " i=" << i;
      }
    }
  }
}

// --- Sigmoid -----------------------------------------------------------------

TEST_F(KernelsTest, TabulatedSigmoidWithinErrorBoundOfExact) {
  double max_err = 0.0;
  for (double x = -10.0; x <= 10.0; x += 1e-3) {
    max_err = std::max(
        max_err, std::abs(kernels::TabulatedSigmoid(x) -
                          kernels::ExactSigmoid(x)));
  }
  EXPECT_LT(max_err, 1e-3);
}

TEST_F(KernelsTest, TabulatedSigmoidClampsExactlyOutsideClipRange) {
  EXPECT_EQ(kernels::TabulatedSigmoid(kernels::kSigmoidClip + 1e-9), 1.0);
  EXPECT_EQ(kernels::TabulatedSigmoid(-kernels::kSigmoidClip - 1e-9), 0.0);
  EXPECT_EQ(kernels::TabulatedSigmoid(100.0), 1.0);
  EXPECT_EQ(kernels::TabulatedSigmoid(-100.0), 0.0);
  // Interior values stay strictly inside (0, 1).
  EXPECT_GT(kernels::TabulatedSigmoid(0.0), 0.4);
  EXPECT_LT(kernels::TabulatedSigmoid(0.0), 0.6);
}

TEST_F(KernelsTest, ExactSigmoidIsOverflowSafe) {
  EXPECT_EQ(kernels::ExactSigmoid(1000.0), 1.0);
  EXPECT_EQ(kernels::ExactSigmoid(-1000.0), 0.0);
  EXPECT_NEAR(kernels::ExactSigmoid(0.0), 0.5, 1e-15);
  EXPECT_NEAR(kernels::ExactSigmoid(2.0) + kernels::ExactSigmoid(-2.0), 1.0,
              1e-15);
}

TEST_F(KernelsTest, TrainingSigmoidDispatchesOnMode) {
  kernels::SetSigmoidMode(kernels::SigmoidMode::kExact);
  EXPECT_EQ(kernels::GetSigmoidMode(), kernels::SigmoidMode::kExact);
  EXPECT_EQ(kernels::TrainingSigmoid(0.7), kernels::ExactSigmoid(0.7));
  kernels::SetSigmoidMode(kernels::SigmoidMode::kTabulated);
  EXPECT_EQ(kernels::GetSigmoidMode(), kernels::SigmoidMode::kTabulated);
  EXPECT_EQ(kernels::TrainingSigmoid(0.7), kernels::TabulatedSigmoid(0.7));
}

// --- AliasTable --------------------------------------------------------------

// Chi-squared goodness of fit against the target distribution. With 3
// degrees of freedom the p = 0.001 critical value is 16.27; the generous
// threshold keeps the test deterministic-stable (fixed seed) while still
// failing loudly on any construction bug that skews the table.
TEST_F(KernelsTest, AliasTableSamplesMatchWeightsChiSquared) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const double total = 10.0;
  AliasTable table(weights);
  Rng rng(12345);
  const size_t draws = 200000;
  std::vector<size_t> counts(weights.size(), 0);
  for (size_t i = 0; i < draws; ++i) ++counts[table.Sample(&rng)];

  double chi2 = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = draws * weights[i] / total;
    const double diff = static_cast<double>(counts[i]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 16.27) << "counts: " << counts[0] << " " << counts[1] << " "
                         << counts[2] << " " << counts[3];
}

TEST_F(KernelsTest, AliasTableHandlesZeroWeightEntries) {
  const std::vector<double> weights = {0.0, 5.0, 0.0, 5.0};
  AliasTable table(weights);
  Rng rng(99);
  for (size_t i = 0; i < 10000; ++i) {
    const size_t s = table.Sample(&rng);
    EXPECT_TRUE(s == 1 || s == 3) << s;
  }
}

// --- Skip-gram integration ---------------------------------------------------

std::vector<std::vector<uint32_t>> MakeCorpus(uint32_t used_vocab,
                                              size_t sentences, size_t length,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> corpus(sentences);
  for (auto& sentence : corpus) {
    sentence.resize(length);
    for (auto& tok : sentence) {
      tok = static_cast<uint32_t>(rng.NextBelow(used_vocab));
    }
  }
  return corpus;
}

TEST_F(KernelsTest, NegativeSamplerBuiltExactlyOncePerTrain) {
  obs::Counter& builds =
      obs::MetricsRegistry::Instance().GetCounter("skipgram.sampler_builds");
  SkipGramConfig config;
  config.dim = 8;
  config.epochs = 3;  // more epochs than one: the build must not repeat
  config.num_shards = 4;
  SkipGramTrainer trainer(16, config);
  const auto corpus = MakeCorpus(16, 6, 20, 5);
  const uint64_t before = builds.value();
  Rng rng(42);
  trainer.Train(corpus, &rng);
  EXPECT_EQ(builds.value() - before, 1u);
}

// Bit-level anchors for the sharded trainer under the scalar backend and the
// tabulated sigmoid: a refactor of Train or of the epoch-boundary merge must
// keep reproducing these exact doubles. The second case uses a vocab much
// larger than the tokens in the corpus, so most rows are never written by any
// shard and the merge averages S identical replica copies of them.
TEST_F(KernelsTest, ShardedTrainingMatchesGoldenBits) {
  kernels::SetSigmoidMode(kernels::SigmoidMode::kTabulated);
  auto train = [](size_t vocab, uint32_t used, size_t sentences,
                  size_t length, uint64_t corpus_seed, uint64_t train_seed) {
    SkipGramConfig config;
    config.dim = 16;
    config.epochs = 2;
    config.num_shards = 4;
    SkipGramTrainer trainer(vocab, config);
    Rng rng(train_seed);
    trainer.Train(MakeCorpus(used, sentences, length, corpus_seed), &rng);
    return trainer;
  };
  const SkipGramTrainer dense = train(24, 24, 10, 30, 123, 9);
  const Matrix& e = dense.embeddings();
  EXPECT_EQ(BitsOf(kernels::Sum(e.data(), e.rows() * e.cols())),
            0xbfc3fd700e7b03b0ULL);
  EXPECT_EQ(BitsOf(kernels::Sum(e.RowPtr(0), e.cols())), 0xbfb6f861fbbb5971ULL);
  EXPECT_EQ(BitsOf(kernels::Sum(e.RowPtr(23), e.cols())),
            0xbf79bd1bac412c18ULL);
  EXPECT_EQ(BitsOf(dense.PairProbability(3, 5)), 0x3fe0008ea0e0107cULL);

  const SkipGramTrainer sparse = train(64, 12, 8, 25, 77, 7);
  const Matrix& s = sparse.embeddings();
  EXPECT_EQ(BitsOf(kernels::Sum(s.data(), s.rows() * s.cols())),
            0x3fa678e065f7bcc0ULL);
  EXPECT_EQ(BitsOf(kernels::Sum(s.RowPtr(5), s.cols())), 0x3f8801aad0e9c760ULL);
  EXPECT_EQ(BitsOf(kernels::Sum(s.RowPtr(40), s.cols())),
            0xbfa52317c1091903ULL);
  EXPECT_EQ(BitsOf(sparse.PairProbability(40, 5)), 0x3fe00047fdcad754ULL);
}

TEST_F(KernelsTest, ShardedTrainingBitIdenticalAcrossThreadCounts) {
  const auto corpus = MakeCorpus(24, 10, 30, 123);
  auto train = [&] {
    SkipGramConfig config;
    config.dim = 16;
    config.epochs = 2;
    config.num_shards = 4;
    SkipGramTrainer trainer(24, config);
    Rng rng(9);
    trainer.Train(corpus, &rng);
    return trainer.embeddings();
  };

  SetThreadCount(1);
  const Matrix one = train();
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SetThreadCount(threads);
    const Matrix many = train();
    ASSERT_EQ(one.rows(), many.rows());
    ASSERT_EQ(one.cols(), many.cols());
    for (size_t r = 0; r < one.rows(); ++r) {
      for (size_t c = 0; c < one.cols(); ++c) {
        EXPECT_EQ(one(r, c), many(r, c))
            << "threads=" << threads << " " << r << "," << c;
      }
    }
  }
}

// Any FIXED backend must give a pure-function pipeline: repeated runs and
// different thread counts produce bit-identical embeddings (the backends only
// differ from each other, never from themselves).
TEST_F(KernelsTest, ShardedTrainingDeterministicUnderEveryForcedBackend) {
  const auto corpus = MakeCorpus(24, 10, 30, 123);
  auto train = [&] {
    SkipGramConfig config;
    config.dim = 16;
    config.epochs = 2;
    config.num_shards = 4;
    SkipGramTrainer trainer(24, config);
    Rng rng(9);
    trainer.Train(corpus, &rng);
    return trainer.embeddings();
  };

  for (const std::string& backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetActiveBackend(backend));
    SetThreadCount(1);
    const Matrix first = train();
    const Matrix repeat = train();
    SetThreadCount(4);
    const Matrix threaded = train();
    ASSERT_EQ(first.rows(), repeat.rows());
    ASSERT_EQ(first.rows(), threaded.rows());
    for (size_t r = 0; r < first.rows(); ++r) {
      for (size_t c = 0; c < first.cols(); ++c) {
        EXPECT_EQ(first(r, c), repeat(r, c))
            << backend << " rerun " << r << "," << c;
        EXPECT_EQ(first(r, c), threaded(r, c))
            << backend << " threads=4 " << r << "," << c;
      }
    }
    SetThreadCount(0);
  }
}

}  // namespace
}  // namespace tg
