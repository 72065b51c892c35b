// Random forest regressor: bagged CART trees with per-split feature
// subsampling. Paper §VI-C settings: 100 trees, max depth 5.
#ifndef TG_ML_RANDOM_FOREST_H_
#define TG_ML_RANDOM_FOREST_H_

#include <string>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/tabular.h"

namespace tg::ml {

struct RandomForestConfig {
  int num_trees = 100;
  TreeConfig tree = {.max_depth = 5, .min_samples_leaf = 2,
                     .min_samples_split = 4, .max_features = 0};
  // Fraction of features considered at each split; 1/3 is the regression
  // default. Overridden by tree.max_features when that is nonzero.
  double feature_fraction = 1.0 / 3.0;
  uint64_t seed = 17;
};

class RandomForest : public Regressor {
 public:
  explicit RandomForest(const RandomForestConfig& config = {})
      : config_(config) {}

  // Returns InvalidArgument naming the field for num_trees < 1, a
  // feature_fraction outside (0, 1], tree.max_depth < 0,
  // tree.min_samples_leaf < 1 or tree.min_samples_split < 2.
  Status Fit(const TabularDataset& data) override;
  double Predict(const std::vector<double>& row) const override;
  std::string name() const override { return "RF"; }
  // Mean variance reduction per feature across trees, normalized to sum 1.
  std::vector<double> FeatureImportances() const override;

  size_t num_trees() const { return trees_.size(); }

 private:
  RandomForestConfig config_;
  std::vector<DecisionTree> trees_;
  size_t num_features_ = 0;
};

}  // namespace tg::ml

#endif  // TG_ML_RANDOM_FOREST_H_
