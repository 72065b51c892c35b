#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/random_forest.h"
#include "numeric/stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg::ml {
namespace {

TabularDataset NonlinearData(size_t n, uint64_t seed, double noise = 0.1) {
  Rng rng(seed);
  TabularDataset data;
  data.x = Matrix::Gaussian(n, 4, &rng);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = std::sin(data.x(i, 0)) + (data.x(i, 1) > 0 ? 1.0 : -1.0) *
                                             std::fabs(data.x(i, 2)) +
                noise * rng.NextGaussian();
  }
  return data;
}

// A table with the column kinds the pipeline feeds the forest: constant
// columns, binary flags, few-level ordinal columns and continuous ones, so
// the exact split search meets long equal-value runs as well as distinct
// values.
TabularDataset MixedColumnData(size_t n, uint64_t seed) {
  constexpr size_t kConstant = 2, kBinary = 3, kOrdinal = 8, kContinuous = 11;
  Rng rng(seed);
  TabularDataset data;
  data.x = Matrix(n, kConstant + kBinary + kOrdinal + kContinuous);
  for (size_t i = 0; i < n; ++i) {
    size_t f = 0;
    for (size_t j = 0; j < kConstant; ++j) data.x(i, f++) = 0.5 * j;
    for (size_t j = 0; j < kBinary; ++j) {
      data.x(i, f++) = rng.NextBernoulli(0.4) ? 1.0 : 0.0;
    }
    for (size_t j = 0; j < kOrdinal; ++j) {
      data.x(i, f++) = 0.25 * static_cast<double>(rng.NextBelow(5));
    }
    for (size_t j = 0; j < kContinuous; ++j) {
      data.x(i, f++) = rng.NextGaussian();
    }
  }
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    data.y[i] = data.x(i, 2) + 1.5 * data.x(i, 6) * data.x(i, 15) +
                std::sin(data.x(i, 20)) + 0.1 * rng.NextGaussian();
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

// Bits of the predictions on rows 0 and 321, the digest of every training
// prediction and the digest of FeatureImportances().
using ForestBits = std::array<uint64_t, 4>;

ForestBits FitAtThreads(const TabularDataset& data, size_t max_features,
                        size_t threads) {
  RandomForestConfig config;
  config.num_trees = 30;
  config.tree.max_features = max_features;
  config.seed = 23;
  SetThreadCount(threads);
  RandomForest model(config);
  const bool ok = model.Fit(data).ok();
  SetThreadCount(0);
  EXPECT_TRUE(ok);
  const std::vector<double> pred = model.PredictBatch(data.x);
  return {BitsOf(pred[0]), BitsOf(pred[321]), DigestOf(pred),
          DigestOf(model.FeatureImportances())};
}

TEST(RandomForestTest, FitsNonlinearFunction) {
  TabularDataset data = NonlinearData(600, 1);
  RandomForestConfig config;
  config.num_trees = 50;
  config.tree.max_depth = 6;
  RandomForest model(config);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> pred = model.PredictBatch(data.x);
  EXPECT_GT(PearsonCorrelation(pred, data.y), 0.85);
  EXPECT_EQ(model.num_trees(), 50u);
}

TEST(RandomForestTest, MoreTreesReduceVariance) {
  TabularDataset train = NonlinearData(400, 2);
  TabularDataset test = NonlinearData(200, 3);

  auto test_rmse = [&](int trees) {
    RandomForestConfig config;
    config.num_trees = trees;
    config.tree.max_depth = 6;
    config.seed = 5;
    RandomForest model(config);
    EXPECT_TRUE(model.Fit(train).ok());
    return Rmse(model.PredictBatch(test.x), test.y);
  };
  // An ensemble should beat a single bagged tree out of sample.
  EXPECT_LT(test_rmse(60), test_rmse(1));
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  TabularDataset data = NonlinearData(200, 4);
  RandomForestConfig config;
  config.num_trees = 10;
  config.seed = 99;
  RandomForest a(config);
  RandomForest b(config);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Predict(data.x.Row(i)), b.Predict(data.x.Row(i)));
  }
}

TEST(RandomForestTest, PredictionWithinTargetRange) {
  // Tree ensembles cannot extrapolate beyond observed targets.
  TabularDataset data = NonlinearData(300, 6);
  RandomForest model;
  ASSERT_TRUE(model.Fit(data).ok());
  const double lo = Min(data.y);
  const double hi = Max(data.y);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> far = {rng.NextGaussian(0, 10), rng.NextGaussian(0, 10),
                               rng.NextGaussian(0, 10),
                               rng.NextGaussian(0, 10)};
    const double p = model.Predict(far);
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
  }
}

TEST(RandomForestTest, RejectsEmptyAndMismatched) {
  RandomForest model;
  TabularDataset empty;
  EXPECT_FALSE(model.Fit(empty).ok());
  TabularDataset bad;
  bad.x = Matrix(5, 2);
  bad.y.resize(3);
  EXPECT_FALSE(model.Fit(bad).ok());
}

// Fits a small valid table under `config` and expects InvalidArgument whose
// message names `field`.
void ExpectRejectsField(const RandomForestConfig& config,
                        const std::string& field) {
  SCOPED_TRACE(field);
  RandomForest model(config);
  const Status status = model.Fit(NonlinearData(50, 10));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("RandomForestConfig." + field),
            std::string::npos)
      << status.message();
}

TEST(RandomForestTest, RejectsNonPositiveTreeCount) {
  for (int trees : {0, -1}) {
    RandomForestConfig config;
    config.num_trees = trees;
    ExpectRejectsField(config, "num_trees");
  }
}

TEST(RandomForestTest, RejectsFeatureFractionOutsideUnitInterval) {
  for (double fraction : {0.0, -0.5, 1.5, std::nan(""), HUGE_VAL}) {
    RandomForestConfig config;
    config.feature_fraction = fraction;
    ExpectRejectsField(config, "feature_fraction");
  }
}

TEST(RandomForestTest, RejectsNegativeMaxDepth) {
  RandomForestConfig config;
  config.tree.max_depth = -1;
  ExpectRejectsField(config, "tree.max_depth");
}

TEST(RandomForestTest, RejectsZeroMinSamplesLeaf) {
  RandomForestConfig config;
  config.tree.min_samples_leaf = 0;
  ExpectRejectsField(config, "tree.min_samples_leaf");
}

TEST(RandomForestTest, RejectsMinSamplesSplitBelowTwo) {
  for (size_t split : {0, 1}) {
    RandomForestConfig config;
    config.tree.min_samples_split = split;
    ExpectRejectsField(config, "tree.min_samples_split");
  }
}

TEST(RandomForestTest, AcceptsBoundaryConfig) {
  RandomForestConfig config;
  config.num_trees = 1;
  config.feature_fraction = 1.0;
  config.tree.max_depth = 0;
  config.tree.min_samples_leaf = 1;
  config.tree.min_samples_split = 2;
  RandomForest model(config);
  EXPECT_TRUE(model.Fit(NonlinearData(50, 10)).ok());
  EXPECT_EQ(model.num_trees(), 1u);
}

TEST(RandomForestDeathTest, PredictRejectsRowOfWrongWidth) {
  RandomForestConfig config;
  config.num_trees = 5;
  RandomForest model(config);
  const TabularDataset data = NonlinearData(100, 11);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> narrow = data.x.Row(0);
  narrow.pop_back();
  EXPECT_DEATH(model.Predict(narrow), "row width");
}

TEST(RandomForestTest, BitIdenticalAcrossThreadCounts) {
  // Per-tree Rng::Fork plus fixed bagging order makes the forest a pure
  // function of (data, seed) regardless of TG_THREADS. Any scheduling
  // dependence would show up as a flipped bit here.
  TabularDataset data = NonlinearData(300, 8);
  auto fit_predictions = [&](size_t threads) {
    SetThreadCount(threads);
    RandomForestConfig config;
    config.num_trees = 12;
    config.tree.max_depth = 5;
    config.seed = 31;
    RandomForest model(config);
    EXPECT_TRUE(model.Fit(data).ok());
    return model.PredictBatch(data.x);
  };
  const std::vector<double> one = fit_predictions(1);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    const std::vector<double> many = fit_predictions(threads);
    ASSERT_EQ(one.size(), many.size());
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i], many[i]) << "threads=" << threads << " row=" << i;
    }
  }
  SetThreadCount(0);
}

// Pins the fitted forest bit for bit, at 1 and 4 threads, once with the
// default feature_fraction of 1/3 and once with tree.max_features set. Any
// change to the split search, the sorted orders, the bootstrap or the
// per-tree RNG streams shows here as a changed constant.
TEST(RandomForestTest, MatchesGoldenBits) {
  const TabularDataset data = MixedColumnData(600, 41);
  const ForestBits fraction{0x3ff3340977604607ULL, 0x3fe9c4fc84ee3f63ULL,
                            0x881f16cd190af5a1ULL, 0x8f787215d70a646cULL};
  const ForestBits fixed{0x3fee2de3740fb5a5ULL, 0x3fe7a412cab66b8dULL,
                         0x149440a7bf49e376ULL, 0x7223995b09cfb1b1ULL};
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(FitAtThreads(data, 0, threads), fraction);
    EXPECT_EQ(FitAtThreads(data, 5, threads), fixed);
  }
}

TEST(RandomForestTest, PaperDefaultsConstructible) {
  // Paper §VI-C: 100 trees, depth 5.
  RandomForestConfig config;
  EXPECT_EQ(config.num_trees, 100);
  EXPECT_EQ(config.tree.max_depth, 5);
}

}  // namespace
}  // namespace tg::ml
