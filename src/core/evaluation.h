// Leave-one-out evaluation driver: runs a strategy over every evaluation
// target of a modality and aggregates per-dataset Pearson correlations,
// the paper's headline metric (Eq. 1).
#ifndef TG_CORE_EVALUATION_H_
#define TG_CORE_EVALUATION_H_

#include <string>
#include <vector>

#include "core/pipeline.h"

namespace tg::core {

struct StrategySummary {
  std::string name;
  std::vector<std::string> target_names;
  std::vector<double> per_target_pearson;
  std::vector<double> per_target_spearman;
  double mean_pearson = 0.0;
  double mean_spearman = 0.0;
};

// Full leave-one-out sweep of one strategy, with no degraded retry: a
// target that fails (an exception, non-finite predictions) or a drained
// sweep throws std::runtime_error naming the first failure, so a figure is
// never built from a silently degraded target.
StrategySummary EvaluateStrategy(Pipeline* pipeline,
                                 const PipelineConfig& config);

// Convenience: summary from precomputed per-target evaluations.
StrategySummary Summarize(const std::string& name,
                          const std::vector<TargetEvaluation>& evals);

}  // namespace tg::core

#endif  // TG_CORE_EVALUATION_H_
