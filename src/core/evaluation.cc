#include "core/evaluation.h"

#include <stdexcept>

#include "numeric/stats.h"

namespace tg::core {

StrategySummary Summarize(const std::string& name,
                          const std::vector<TargetEvaluation>& evals) {
  StrategySummary summary;
  summary.name = name;
  for (const TargetEvaluation& e : evals) {
    summary.target_names.push_back(e.target_name);
    summary.per_target_pearson.push_back(e.pearson);
    summary.per_target_spearman.push_back(e.spearman);
  }
  summary.mean_pearson = Mean(summary.per_target_pearson);
  summary.mean_spearman = Mean(summary.per_target_spearman);
  return summary;
}

StrategySummary EvaluateStrategy(Pipeline* pipeline,
                                 const PipelineConfig& config) {
  SweepOptions options;
  options.degrade_on_failure = false;
  SweepResult result = pipeline->EvaluateAllTargetsResumable(config, options);
  if (!result.complete) {
    throw std::runtime_error(result.errors.empty() ? "sweep drained"
                                                   : result.errors.front());
  }
  return Summarize(config.strategy.DisplayName(), result.evaluations);
}

}  // namespace tg::core
