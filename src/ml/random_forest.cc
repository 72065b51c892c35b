#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg::ml {
namespace {

// Comparisons are written so that NaN fails them.
Status ValidateConfig(const RandomForestConfig& c) {
  const auto reject = [](const char* field, const char* rule,
                         const std::string& value) {
    return Status::InvalidArgument(std::string("RandomForestConfig.") +
                                   field + " must be " + rule + ", got " +
                                   value);
  };
  using std::to_string;
  if (c.num_trees < 1) {
    return reject("num_trees", ">= 1", to_string(c.num_trees));
  }
  if (!(c.feature_fraction > 0.0 && c.feature_fraction <= 1.0)) {
    return reject("feature_fraction", "in (0, 1]",
                  to_string(c.feature_fraction));
  }
  if (c.tree.max_depth < 0) {
    return reject("tree.max_depth", ">= 0", to_string(c.tree.max_depth));
  }
  if (c.tree.min_samples_leaf < 1) {
    return reject("tree.min_samples_leaf", ">= 1",
                  to_string(c.tree.min_samples_leaf));
  }
  if (c.tree.min_samples_split < 2) {
    return reject("tree.min_samples_split", ">= 2",
                  to_string(c.tree.min_samples_split));
  }
  return Status::OK();
}

}  // namespace

Status RandomForest::Fit(const TabularDataset& data) {
  TG_TRACE_SPAN("forest_fit");
  if (Status status = ValidateConfig(config_); !status.ok()) return status;
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (data.y.size() != data.num_rows()) {
    return Status::InvalidArgument("target size mismatch");
  }
  trees_.clear();
  num_features_ = data.num_features();

  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(config_.feature_fraction *
                                         static_cast<double>(
                                             data.num_features()))));
  }

  // Trees are independent given their own random stream: tree t draws its
  // bootstrap sample and split-feature subsets from Fork(t) of the config
  // seed, so the fitted forest is bit-identical for any thread count.
  //
  // The column-major feature copy and its (value, row index) sorted orders
  // are built once, before the parallel loop, and shared read-only by every
  // tree.
  const Rng base_rng(config_.seed);
  const size_t n = data.num_rows();
  const FeatureColumns columns(data.x);
  trees_.resize(static_cast<size_t>(config_.num_trees),
                DecisionTree(tree_config));
  // Work estimate: each tree visits ~n bootstrap rows per level; tiny fits
  // (unit tests, few rows) run inline rather than paying pool dispatch.
  const size_t estimated_work = static_cast<size_t>(config_.num_trees) * n;
  ParallelForIfWorth(0, static_cast<size_t>(config_.num_trees), 1,
                     estimated_work,
                     [&](size_t begin, size_t end, size_t /*chunk*/) {
                       std::vector<size_t> bootstrap(n);
                       for (size_t t = begin; t < end; ++t) {
                         Rng tree_rng = base_rng.Fork(t);
                         for (size_t i = 0; i < n; ++i) {
                           bootstrap[i] =
                               static_cast<size_t>(tree_rng.NextBelow(n));
                         }
                         trees_[t].Fit(columns, data.y, bootstrap, &tree_rng);
                       }
                     });
  return Status::OK();
}

std::vector<double> RandomForest::FeatureImportances() const {
  if (trees_.empty()) return {};
  std::vector<double> total(trees_.front().feature_gains().size(), 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto& gains = tree.feature_gains();
    for (size_t f = 0; f < total.size(); ++f) total[f] += gains[f];
  }
  double sum = 0.0;
  for (double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

double RandomForest::Predict(const std::vector<double>& row) const {
  TG_CHECK_MSG(!trees_.empty(), "Predict before Fit");
  TG_CHECK_MSG(row.size() == num_features_,
               "Predict row width differs from the training table");
  double acc = 0.0;
  for (const DecisionTree& tree : trees_) acc += tree.Predict(row);
  return acc / static_cast<double>(trees_.size());
}

}  // namespace tg::ml
