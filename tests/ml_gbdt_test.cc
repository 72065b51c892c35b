#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "ml/gbdt.h"
#include "numeric/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg::ml {
namespace {

TabularDataset NonlinearData(size_t n, uint64_t seed, double noise = 0.05) {
  Rng rng(seed);
  TabularDataset data;
  data.x = Matrix::Gaussian(n, 5, &rng);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = data.x(i, 0) * data.x(i, 1) + std::cos(data.x(i, 2)) +
                0.3 * data.x(i, 3) + noise * rng.NextGaussian();
  }
  return data;
}

// The feature-table column mix the pipeline feeds the GBDT: constant
// columns, binary flags, ~11-level ordinal columns and continuous
// embeddings, so binning sees every bin-count regime it meets in production.
TabularDataset ProductionMixData(size_t n, uint64_t seed) {
  constexpr size_t kConstant = 3, kBinary = 4, kOrdinal = 15, kContinuous = 18;
  Rng rng(seed);
  TabularDataset data;
  data.x = Matrix(n, kConstant + kBinary + kOrdinal + kContinuous);
  for (size_t i = 0; i < n; ++i) {
    size_t f = 0;
    for (size_t j = 0; j < kConstant; ++j) data.x(i, f++) = 0.25 * j;
    for (size_t j = 0; j < kBinary; ++j) {
      data.x(i, f++) = rng.NextBernoulli(0.3) ? 1.0 : 0.0;
    }
    for (size_t j = 0; j < kOrdinal; ++j) {
      data.x(i, f++) = 0.1 * static_cast<double>(rng.NextBelow(11));
    }
    for (size_t j = 0; j < kContinuous; ++j) {
      data.x(i, f++) = rng.NextGaussian();
    }
  }
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = data.x(i, 3) + 2.0 * data.x(i, 8) * data.x(i, 25) +
                std::sin(data.x(i, 30)) + 0.1 * rng.NextGaussian();
  }
  return data;
}

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// FNV-1a over the bit patterns, so one constant pins a whole vector.
uint64_t DigestOf(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    h ^= BitsOf(v);
    h *= 1099511628211ULL;
  }
  return h;
}

// Bits of predictions on rows 0, 123 and 599, of the importance digest and
// of the final training RMSE.
using FitBits = std::array<uint64_t, 5>;

FitBits FitAtThreads(const TabularDataset& data, double subsample,
                     size_t threads) {
  GbdtConfig config;
  config.num_trees = 60;
  config.max_depth = 5;
  config.subsample = subsample;
  SetThreadCount(threads);
  Gbdt model(config);
  const bool ok = model.Fit(data).ok();
  SetThreadCount(0);
  EXPECT_TRUE(ok);
  return {BitsOf(model.Predict(data.x.Row(0))),
          BitsOf(model.Predict(data.x.Row(123))),
          BitsOf(model.Predict(data.x.Row(599))),
          DigestOf(model.FeatureImportances()),
          BitsOf(model.train_rmse_curve().back())};
}

// Pins the fitted model bit for bit, at 1 and 4 threads, with and without
// row subsampling. Any change to binning, histogram accumulation order,
// sibling subtraction, the split scan or the partition shows here as a
// changed constant.
TEST(GbdtTest, MatchesGoldenBits) {
  const TabularDataset data = ProductionMixData(600, 31);
  const FitBits full{0x3fe0fab8cc8c876cULL, 0x3fe03b4ca0764f27ULL,
                     0x40088d622c2f92fbULL, 0x39b133569691f941ULL,
                     0x3fb314b9418ac584ULL};
  const FitBits sampled{0x3fddcccbc1e9b211ULL, 0x3fe15894e6695be4ULL,
                        0x40089da2602c0bb8ULL, 0xa04350e8494ff1a2ULL,
                        0x3fb5bd1628e3de31ULL};
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(FitAtThreads(data, 1.0, threads), full);
    EXPECT_EQ(FitAtThreads(data, 0.7, threads), sampled);
  }
}

// Mean held-out RMSE over 8 seeds of ProductionMixData at the paper's
// settings (500 trees, depth 5), with and without row subsampling.
double SeedAveragedHeldOutRmse(double subsample) {
  constexpr uint64_t kSeeds = 8;
  double sum = 0.0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    GbdtConfig config;
    config.subsample = subsample;
    Gbdt model(config);
    EXPECT_TRUE(model.Fit(ProductionMixData(600, seed)).ok());
    const TabularDataset held_out = ProductionMixData(600, 1000 + seed);
    std::vector<double> predictions(held_out.num_rows());
    for (size_t i = 0; i < held_out.num_rows(); ++i) {
      predictions[i] = model.Predict(held_out.x.Row(i));
    }
    sum += Rmse(predictions, held_out.y);
  }
  return sum / static_cast<double>(kSeeds);
}

// Sibling subtraction moves the larger child's gradient sums by ulps, so
// split gains can tie-break differently and the model is held to a quality
// envelope rather than to bits: the seed-averaged held-out RMSE must stay
// within 1% of the value the direct-build GBDT (every node's histograms
// filled from its own rows) measured on the same draws.
TEST(GbdtTest, SeedAveragedHeldOutRmseWithinEnvelope) {
  constexpr double kDirectBuildFull = 0.32321075025541041;
  constexpr double kDirectBuildSampled = 0.31795288427384577;
  EXPECT_NEAR(SeedAveragedHeldOutRmse(1.0), kDirectBuildFull,
              0.01 * kDirectBuildFull);
  EXPECT_NEAR(SeedAveragedHeldOutRmse(0.7), kDirectBuildSampled,
              0.01 * kDirectBuildSampled);
}

TEST(GbdtTest, TrainRmseDecreasesMonotonically) {
  TabularDataset data = NonlinearData(400, 1);
  GbdtConfig config;
  config.num_trees = 100;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  const auto& curve = model.train_rmse_curve();
  ASSERT_EQ(curve.size(), 100u);
  // Squared-loss boosting on training data is non-increasing (up to tiny
  // histogram-boundary effects).
  EXPECT_LT(curve.back(), curve.front() * 0.5);
  int increases = 0;
  for (size_t i = 1; i < curve.size(); ++i) {
    if (curve[i] > curve[i - 1] + 1e-9) ++increases;
  }
  EXPECT_LE(increases, 2);
}

TEST(GbdtTest, FitsInteractionTerm) {
  TabularDataset data = NonlinearData(600, 2);
  GbdtConfig config;
  config.num_trees = 200;
  config.max_depth = 4;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> pred = model.PredictBatch(data.x);
  EXPECT_GT(PearsonCorrelation(pred, data.y), 0.95);
}

TEST(GbdtTest, GeneralizesBetterThanMean) {
  TabularDataset train = NonlinearData(500, 3);
  TabularDataset test = NonlinearData(300, 4);
  GbdtConfig config;
  config.num_trees = 150;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(train).ok());
  const double model_rmse = Rmse(model.PredictBatch(test.x), test.y);
  std::vector<double> mean_pred(test.y.size(), Mean(train.y));
  const double mean_rmse = Rmse(mean_pred, test.y);
  EXPECT_LT(model_rmse, mean_rmse * 0.6);
}

TEST(GbdtTest, ShrinkageSlowsFitting) {
  TabularDataset data = NonlinearData(300, 5);
  GbdtConfig fast;
  fast.num_trees = 20;
  fast.learning_rate = 0.3;
  GbdtConfig slow;
  slow.num_trees = 20;
  slow.learning_rate = 0.01;
  Gbdt fast_model(fast);
  Gbdt slow_model(slow);
  ASSERT_TRUE(fast_model.Fit(data).ok());
  ASSERT_TRUE(slow_model.Fit(data).ok());
  EXPECT_LT(fast_model.train_rmse_curve().back(),
            slow_model.train_rmse_curve().back());
}

TEST(GbdtTest, LambdaRegularizesLeafValues) {
  // Heavier L2 on leaves -> less training-set fit per tree.
  TabularDataset data = NonlinearData(300, 6);
  GbdtConfig light;
  light.num_trees = 10;
  light.lambda = 0.01;
  GbdtConfig heavy;
  heavy.num_trees = 10;
  heavy.lambda = 100.0;
  Gbdt light_model(light);
  Gbdt heavy_model(heavy);
  ASSERT_TRUE(light_model.Fit(data).ok());
  ASSERT_TRUE(heavy_model.Fit(data).ok());
  EXPECT_LT(light_model.train_rmse_curve().back(),
            heavy_model.train_rmse_curve().back());
}

TEST(GbdtTest, SubsampleWorks) {
  TabularDataset data = NonlinearData(300, 7);
  GbdtConfig config;
  config.num_trees = 50;
  config.subsample = 0.5;
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_GT(PearsonCorrelation(model.PredictBatch(data.x), data.y), 0.8);
}

TEST(GbdtTest, ConstantTargetIsExact) {
  TabularDataset data;
  Rng rng(8);
  data.x = Matrix::Gaussian(50, 3, &rng);
  data.y.assign(50, 2.5);
  Gbdt model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_NEAR(model.Predict(data.x.Row(0)), 2.5, 1e-9);
}

TEST(GbdtTest, DeterministicGivenSeed) {
  TabularDataset data = NonlinearData(200, 9);
  GbdtConfig config;
  config.num_trees = 30;
  Gbdt a(config);
  Gbdt b(config);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(data.x.Row(i)), b.Predict(data.x.Row(i)));
  }
}

TEST(GbdtTest, PaperDefaults) {
  // Paper §VI-C: 500 trees, depth 5.
  GbdtConfig config;
  EXPECT_EQ(config.num_trees, 500);
  EXPECT_EQ(config.max_depth, 5);
}

TEST(GbdtTest, RejectsInvalidInput) {
  Gbdt model;
  TabularDataset empty;
  EXPECT_FALSE(model.Fit(empty).ok());
}

// Fits a small valid table under `config` and expects InvalidArgument whose
// message names `field`.
void ExpectRejectsField(const GbdtConfig& config, const std::string& field) {
  SCOPED_TRACE(field);
  Gbdt model(config);
  const Status status = model.Fit(NonlinearData(50, 10));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("GbdtConfig." + field), std::string::npos)
      << status.message();
}

TEST(GbdtTest, RejectsZeroTrees) {
  GbdtConfig config;
  config.num_trees = 0;
  ExpectRejectsField(config, "num_trees");
}

TEST(GbdtTest, RejectsNegativeMaxDepth) {
  GbdtConfig config;
  config.max_depth = -1;
  ExpectRejectsField(config, "max_depth");
}

TEST(GbdtTest, RejectsNonPositiveOrNonFiniteLearningRate) {
  for (double rate : {0.0, -0.1, std::nan(""), HUGE_VAL}) {
    GbdtConfig config;
    config.learning_rate = rate;
    ExpectRejectsField(config, "learning_rate");
  }
}

TEST(GbdtTest, RejectsNegativeLambda) {
  GbdtConfig config;
  config.lambda = -1.0;
  ExpectRejectsField(config, "lambda");
}

TEST(GbdtTest, RejectsNegativeGamma) {
  GbdtConfig config;
  config.gamma = -0.5;
  ExpectRejectsField(config, "gamma");
}

TEST(GbdtTest, RejectsNegativeMinChildWeight) {
  GbdtConfig config;
  config.min_child_weight = -1.0;
  ExpectRejectsField(config, "min_child_weight");
}

TEST(GbdtTest, RejectsSubsampleOutsideUnitInterval) {
  for (double fraction : {0.0, -0.5, 1.5, std::nan("")}) {
    GbdtConfig config;
    config.subsample = fraction;
    ExpectRejectsField(config, "subsample");
  }
}

TEST(GbdtTest, RejectsMaxBinsOutsideOneByteCodes) {
  for (int bins : {-1, 0, 1, 257, 65537}) {
    GbdtConfig config;
    config.max_bins = bins;
    ExpectRejectsField(config, "max_bins");
  }
}

TEST(GbdtTest, AcceptsBoundaryConfig) {
  GbdtConfig config;
  config.num_trees = 1;
  config.max_depth = 0;
  config.lambda = 0.0;
  config.min_child_weight = 0.0;
  config.subsample = 1.0;
  for (int bins : {2, 256}) {
    config.max_bins = bins;
    Gbdt model(config);
    EXPECT_TRUE(model.Fit(NonlinearData(50, 10)).ok());
  }
}

TEST(GbdtTest, FlushesTreeCountersOncePerSearchedNode) {
  // One depth-1 tree: only the root searches. Its boundaries: three on the
  // 4-level column, one on the binary column, none on the constant one.
  TabularDataset data;
  data.x = Matrix(8, 3);
  data.y.resize(8);
  for (size_t i = 0; i < 8; ++i) {
    data.x(i, 0) = static_cast<double>(i % 4);
    data.x(i, 1) = 7.0;
    data.x(i, 2) = static_cast<double>(i / 4);
    data.y[i] = static_cast<double>(i);
  }
  GbdtConfig config;
  config.num_trees = 1;
  config.max_depth = 1;
  obs::Counter& evals =
      obs::MetricsRegistry::Instance().GetCounter("tree.split_evaluations");
  obs::Counter& builds =
      obs::MetricsRegistry::Instance().GetCounter("tree.hist_builds");
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const uint64_t evals_before = evals.value();
  const uint64_t builds_before = builds.value();
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  obs::SetMetricsEnabled(was_enabled);
  EXPECT_EQ(evals.value() - evals_before, 4u);
  EXPECT_EQ(builds.value() - builds_before, 1u);
}

TEST(GbdtTest, FillsHistogramsFromRowsOncePerSearchedSplit) {
  // One depth-2 tree on 8 rows: the root's histograms are filled from its
  // rows, and its split fills the smaller child's once and derives the
  // larger child's by subtraction. The depth-2 grandchildren are leaves, so
  // the depth-1 splits fill nothing.
  TabularDataset data;
  data.x = Matrix(8, 2);
  data.y.resize(8);
  for (size_t i = 0; i < 8; ++i) {
    data.x(i, 0) = static_cast<double>(i % 4);
    data.x(i, 1) = static_cast<double>(i / 4);
    data.y[i] = static_cast<double>(i);
  }
  GbdtConfig config;
  config.num_trees = 1;
  config.max_depth = 2;
  obs::Counter& builds =
      obs::MetricsRegistry::Instance().GetCounter("tree.hist_builds");
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const uint64_t builds_before = builds.value();
  Gbdt model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  obs::SetMetricsEnabled(was_enabled);
  EXPECT_EQ(builds.value() - builds_before, 2u);
}

TEST(GbdtDeathTest, PredictRejectsRowOfWrongWidth) {
  GbdtConfig config;
  config.num_trees = 5;
  Gbdt model(config);
  const TabularDataset data = NonlinearData(100, 11);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> narrow = data.x.Row(0);
  narrow.pop_back();
  EXPECT_DEATH(model.Predict(narrow), "row width");
}

}  // namespace
}  // namespace tg::ml
