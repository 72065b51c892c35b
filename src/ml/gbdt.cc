#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/binning.h"
#include "numeric/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tg::ml {
namespace {

struct NodeStats {
  double g = 0.0;
  double h = 0.0;
};

// One histogram bin: gradient sum and row count (the squared-loss hessian).
struct HistBin {
  double g = 0.0;
  uint64_t count = 0;
};

// Best split found in one block of features.
struct SplitCandidate {
  double gain = 0.0;
  size_t feature = 0;  // index into the non-constant features
  uint8_t bin = 0;
  uint64_t evals = 0;
};

// Same flush-once-per-event-batch pattern as the decision tree counters:
// disabled runs pay one predictable branch.
void BumpGbdtCounters(uint64_t split_evals, uint64_t hist_builds) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& eval_counter =
      obs::MetricsRegistry::Instance().GetCounter("tree.split_evaluations");
  static obs::Counter& hist_counter =
      obs::MetricsRegistry::Instance().GetCounter("tree.hist_builds");
  if (split_evals != 0) eval_counter.Increment(split_evals);
  if (hist_builds != 0) hist_counter.Increment(hist_builds);
}

// Comparisons are written so that NaN fails them.
Status ValidateConfig(const GbdtConfig& c) {
  const auto reject = [](const char* field, const char* rule,
                         const std::string& value) {
    return Status::InvalidArgument(std::string("GbdtConfig.") + field +
                                   " must be " + rule + ", got " + value);
  };
  using std::to_string;
  if (c.num_trees < 1) {
    return reject("num_trees", ">= 1", to_string(c.num_trees));
  }
  if (c.max_depth < 0) {
    return reject("max_depth", ">= 0", to_string(c.max_depth));
  }
  if (!(std::isfinite(c.learning_rate) && c.learning_rate > 0.0)) {
    return reject("learning_rate", "finite and > 0",
                  to_string(c.learning_rate));
  }
  if (!(c.lambda >= 0.0)) return reject("lambda", ">= 0", to_string(c.lambda));
  if (!(c.gamma >= 0.0)) return reject("gamma", ">= 0", to_string(c.gamma));
  if (!(c.min_child_weight >= 0.0)) {
    return reject("min_child_weight", ">= 0", to_string(c.min_child_weight));
  }
  if (!(c.subsample > 0.0 && c.subsample <= 1.0)) {
    return reject("subsample", "in (0, 1]", to_string(c.subsample));
  }
  if (c.max_bins < 2 || c.max_bins > 256) {
    return reject("max_bins", "in [2, 256]", to_string(c.max_bins));
  }
  return Status::OK();
}

}  // namespace

// Depth-first builder for one tree over [begin, end) ranges of `rows`.
//
// Codes are row major (n x k, one byte each) over the k non-constant
// features, so a node's histograms for a block of features come from one
// pass over its rows. Within each bin the gradients are added in row order,
// exactly as a per-feature scatter would add them, so every sum -- and every
// split -- is independent of the blocking.
struct Gbdt::TreeBuilder {
  const GbdtConfig& config;
  const std::vector<uint8_t>& codes;
  const std::vector<std::vector<double>>& edges;  // per non-constant feature
  const std::vector<size_t>& features;  // non-constant -> original index
  const std::vector<double>& grad;
  size_t threads;                 // one feature block per thread
  std::vector<HistBin>& hist;     // k x max_bins, reused by every node
  std::vector<size_t>& rows;
  std::vector<double>& feature_gains;
  std::vector<GbdtNode> nodes = {};

  size_t k() const { return features.size(); }
  size_t stride() const { return static_cast<size_t>(config.max_bins); }

  // Fills features [f_begin, f_end)'s histograms from rows [begin, end) and
  // returns the block's best split: bins in order, then features in order,
  // strict `>`, so ties keep the first boundary a sequential scan meets.
  SplitCandidate ScanBlock(size_t begin, size_t end, size_t f_begin,
                           size_t f_end, const NodeStats& total) const {
    const size_t width = f_end - f_begin;
    const size_t step = stride();
    HistBin* block = hist.data() + f_begin * step;
    for (size_t j = 0; j < width; ++j) {
      std::fill_n(block + j * step, edges[f_begin + j].size() + 1, HistBin{});
    }
    const size_t row_width = k();
    const uint8_t* block_codes = codes.data() + f_begin;
    for (size_t i = begin; i < end; ++i) {
      const size_t r = rows[i];
      const double g = grad[r];
      const uint8_t* row_codes = block_codes + r * row_width;
      HistBin* bins = block;
      for (size_t j = 0; j < width; ++j, bins += step) {
        HistBin& bin = bins[row_codes[j]];
        bin.g += g;
        ++bin.count;
      }
    }

    // Only non-empty bins are scored. A boundary after an empty bin has the
    // same (left, right) as the boundary before it, so the same gain, which
    // the strict `>` never prefers; a leading empty bin leaves left.h = 0,
    // which fails min_child_weight or scores -gamma <= 0.
    const double lambda = config.lambda;
    const double parent_score = total.g * total.g / (total.h + lambda);
    SplitCandidate best;
    for (size_t j = 0; j < width; ++j) {
      const HistBin* bins = block + j * step;
      const size_t num_bins = edges[f_begin + j].size() + 1;
      double left_g = 0.0;
      uint64_t left_count = 0;
      for (size_t b = 0; b + 1 < num_bins; ++b) {
        if (bins[b].count == 0) continue;
        left_g += bins[b].g;
        left_count += bins[b].count;
        const NodeStats left{left_g, static_cast<double>(left_count)};
        const NodeStats right{total.g - left.g, total.h - left.h};
        if (left.h < config.min_child_weight ||
            right.h < config.min_child_weight) {
          continue;
        }
        ++best.evals;
        const double gain = 0.5 * (left.g * left.g / (left.h + lambda) +
                                   right.g * right.g / (right.h + lambda) -
                                   parent_score) -
                            config.gamma;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f_begin + j;
          best.bin = static_cast<uint8_t>(b);
        }
      }
    }
    return best;
  }

  int Build(size_t begin, size_t end, int depth) {
    NodeStats total;
    for (size_t i = begin; i < end; ++i) total.g += grad[rows[i]];
    total.h = static_cast<double>(end - begin);
    const int node_index = static_cast<int>(nodes.size());
    nodes.emplace_back();
    nodes[node_index].value =
        -total.g / (total.h + config.lambda) * config.learning_rate;

    if (depth >= config.max_depth ||
        total.h < 2.0 * config.min_child_weight || k() == 0) {
      return node_index;
    }

    // One contiguous feature block per pool thread, each one pass over the
    // node's rows (small nodes run the blocks inline). The reduction runs
    // over blocks in feature order with strict `>`, so the chosen split is
    // bit-identical for any thread count.
    const size_t block_size = (k() + threads - 1) / threads;
    std::vector<SplitCandidate> block_best((k() + block_size - 1) /
                                           block_size);
    {
      TG_TRACE_SPAN("split_search");
      ParallelForIfWorth(0, k(), block_size, (end - begin) * k(),
                         [&](size_t f_begin, size_t f_end, size_t chunk) {
                           block_best[chunk] =
                               ScanBlock(begin, end, f_begin, f_end, total);
                         });
    }
    SplitCandidate best;
    for (const SplitCandidate& candidate : block_best) {
      best.evals += candidate.evals;
      if (candidate.gain > best.gain) {
        best.gain = candidate.gain;
        best.feature = candidate.feature;
        best.bin = candidate.bin;
      }
    }
    // One histogram build per node, covering all features.
    BumpGbdtCounters(best.evals, 1);
    if (best.gain <= 0.0) return node_index;

    const uint8_t* split_codes = codes.data() + best.feature;
    auto middle = std::partition(
        rows.begin() + static_cast<long>(begin),
        rows.begin() + static_cast<long>(end),
        [&](size_t r) { return split_codes[r * k()] <= best.bin; });
    const size_t mid = static_cast<size_t>(middle - rows.begin());
    if (mid == begin || mid == end) return node_index;
    const size_t feature = features[best.feature];
    feature_gains[feature] += best.gain;

    const int left_child = Build(begin, mid, depth + 1);
    const int right_child = Build(mid, end, depth + 1);
    GbdtNode& node = nodes[node_index];
    node.is_leaf = false;
    node.feature = feature;
    node.threshold = edges[best.feature][best.bin];
    node.left = left_child;
    node.right = right_child;
    return node_index;
  }
};

double Gbdt::Tree::PredictRow(const double* row) const {
  int node = 0;
  while (!nodes[node].is_leaf) {
    node = row[nodes[node].feature] <= nodes[node].threshold
               ? nodes[node].left
               : nodes[node].right;
  }
  return nodes[node].value;
}

Status Gbdt::Fit(const TabularDataset& data) {
  TG_TRACE_SPAN("gbdt_fit");
  if (Status status = ValidateConfig(config_); !status.ok()) return status;
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (data.y.size() != data.num_rows()) {
    return Status::InvalidArgument("target size mismatch");
  }
  const size_t n = data.num_rows();
  const size_t d = data.num_features();

  trees_.clear();
  rmse_curve_.clear();
  feature_gains_.assign(d, 0.0);
  num_features_ = d;
  base_score_ = Mean(data.y);

  // Bin once: quantile edges per feature (parallel over features, when the
  // n x d work amortizes dispatch), then one-byte codes, row major, over
  // only the non-constant features -- a constant column has no boundary.
  std::vector<std::vector<double>> edges;
  std::vector<size_t> features;
  std::vector<uint8_t> codes;
  {
    TG_TRACE_SPAN("bin_build");
    std::vector<std::vector<double>> all_edges(d);
    ParallelForIfWorth(
        0, d, 1, n * d, [&](size_t begin, size_t end, size_t /*chunk*/) {
          std::vector<double> column(n);
          for (size_t f = begin; f < end; ++f) {
            for (size_t r = 0; r < n; ++r) column[r] = data.x(r, f);
            all_edges[f] = ComputeBinEdges(column.data(), n, config_.max_bins);
          }
        });
    for (size_t f = 0; f < d; ++f) {
      if (all_edges[f].empty()) continue;
      features.push_back(f);
      edges.push_back(std::move(all_edges[f]));
    }
    const size_t k = features.size();
    codes.resize(n * k);
    ParallelForIfWorth(
        0, n, 256, n * k, [&](size_t begin, size_t end, size_t /*chunk*/) {
          for (size_t r = begin; r < end; ++r) {
            const double* x = data.x.RowPtr(r);
            for (size_t j = 0; j < k; ++j) {
              codes[r * k + j] =
                  static_cast<uint8_t>(BinOf(x[features[j]], edges[j]));
            }
          }
        });
  }

  std::vector<double> predictions(n, base_score_);
  std::vector<double> grad(n);
  std::vector<HistBin> hist(features.size() *
                            static_cast<size_t>(config_.max_bins));
  const size_t threads = ThreadCount();
  Rng rng(config_.seed);

  for (int round = 0; round < config_.num_trees; ++round) {
    // Squared-error objective: g_i = pred - y, h_i = 1.
    for (size_t i = 0; i < n; ++i) grad[i] = predictions[i] - data.y[i];

    // Row sample for this tree.
    std::vector<size_t> rows;
    if (config_.subsample >= 1.0) {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBernoulli(config_.subsample)) rows.push_back(i);
      }
      if (rows.empty()) rows.push_back(static_cast<size_t>(rng.NextBelow(n)));
    }

    TreeBuilder builder{config_, codes, edges, features,     grad,
                        threads, hist,  rows,  feature_gains_};
    {
      TG_TRACE_SPAN("tree_fit");
      builder.Build(0, rows.size(), 0);
    }
    Tree tree{std::move(builder.nodes)};

    // Update predictions on all rows with the new tree (disjoint writes).
    // Per-row work is one root-to-leaf descent, so the work estimate scales
    // rows by the tree depth; small datasets run inline.
    ParallelForIfWorth(
        0, n, 512, n * static_cast<size_t>(std::max(config_.max_depth, 1)),
        [&](size_t r_begin, size_t r_end, size_t /*chunk*/) {
          for (size_t r = r_begin; r < r_end; ++r) {
            predictions[r] += tree.PredictRow(data.x.RowPtr(r));
          }
        });
    trees_.push_back(std::move(tree));
    rmse_curve_.push_back(Rmse(predictions, data.y));
  }
  return Status::OK();
}

std::vector<double> Gbdt::FeatureImportances() const {
  if (feature_gains_.empty()) return {};
  double sum = 0.0;
  for (double v : feature_gains_) sum += v;
  std::vector<double> out = feature_gains_;
  if (sum > 0.0) {
    for (double& v : out) v /= sum;
  }
  return out;
}

double Gbdt::Predict(const std::vector<double>& row) const {
  TG_CHECK_MSG(!trees_.empty(), "Predict before Fit");
  TG_CHECK_MSG(row.size() == num_features_,
               "Predict row width differs from the training table");
  double acc = base_score_;
  for (const Tree& tree : trees_) acc += tree.PredictRow(row.data());
  return acc;
}

}  // namespace tg::ml
