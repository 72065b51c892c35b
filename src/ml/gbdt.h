// XGBoost-style gradient-boosted regression trees (Chen & Guestrin 2016):
// second-order Taylor objective, leaf weight -G/(H+lambda), split gain
//   1/2 [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda) ] - gamma,
// histogram-binned features (quantile bin edges, one-byte codes) for fast
// exact-enough splits, shrinkage, and optional row subsampling.
// Paper §VI-C settings: 500 trees, max depth 5.
#ifndef TG_ML_GBDT_H_
#define TG_ML_GBDT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/tabular.h"

namespace tg::ml {

// Fit() rejects out-of-range fields with InvalidArgument naming the field.
struct GbdtConfig {
  int num_trees = 500;         // >= 1
  int max_depth = 5;           // >= 0
  double learning_rate = 0.1;  // shrinkage eta, finite and > 0
  double lambda = 1.0;         // L2 on leaf weights, >= 0
  double gamma = 0.0;          // complexity penalty per split, >= 0
  double min_child_weight = 1.0;  // >= 0
  double subsample = 1.0;      // row subsample fraction per tree, in (0, 1]
  int max_bins = 64;           // in [2, 256]: bin codes are one byte
  uint64_t seed = 23;
};

class Gbdt : public Regressor {
 public:
  explicit Gbdt(const GbdtConfig& config = {}) : config_(config) {}

  Status Fit(const TabularDataset& data) override;
  // `row` must have the training table's width (checked).
  double Predict(const std::vector<double>& row) const override;
  std::string name() const override { return "XGB"; }
  // Total split gain per feature over all boosting rounds, sum-normalized.
  std::vector<double> FeatureImportances() const override;

  size_t num_trees() const { return trees_.size(); }
  // Training RMSE after each boosting round (for convergence tests).
  const std::vector<double>& train_rmse_curve() const { return rmse_curve_; }

 private:
  struct GbdtNode {
    bool is_leaf = true;
    double value = 0.0;      // leaf weight (already shrunk)
    size_t feature = 0;
    double threshold = 0.0;  // raw-value threshold; left when <=
    int left = -1;
    int right = -1;
  };
  struct Tree {
    std::vector<GbdtNode> nodes;
    double PredictRow(const double* row) const;
  };
  struct TreeBuilder;

  GbdtConfig config_;
  size_t num_features_ = 0;
  double base_score_ = 0.0;
  std::vector<Tree> trees_;
  std::vector<double> rmse_curve_;
  std::vector<double> feature_gains_;
};

}  // namespace tg::ml

#endif  // TG_ML_GBDT_H_
