#include "core/baselines.h"

#include "numeric/stats.h"
#include "util/check.h"
#include "util/rng.h"

namespace tg::core {
namespace {

TargetEvaluation Finish(zoo::ModelZoo* zoo, size_t target,
                        std::vector<size_t> model_ids,
                        std::vector<double> predicted,
                        zoo::FineTuneMethod method) {
  TargetEvaluation eval;
  eval.target_dataset = target;
  eval.target_name = zoo->datasets()[target].name;
  eval.model_indices = std::move(model_ids);
  eval.predicted = std::move(predicted);
  eval.actual.reserve(eval.model_indices.size());
  for (size_t m : eval.model_indices) {
    eval.actual.push_back(zoo->FineTuneAccuracy(m, target, method));
  }
  eval.pearson = PearsonCorrelation(eval.predicted, eval.actual);
  eval.spearman = SpearmanCorrelation(eval.predicted, eval.actual);
  return eval;
}

}  // namespace

const char* EstimatorBaselineName(EstimatorBaseline baseline) {
  switch (baseline) {
    case EstimatorBaseline::kLogMe:
      return "LogME";
    case EstimatorBaseline::kLeep:
      return "LEEP";
    case EstimatorBaseline::kNce:
      return "NCE";
    case EstimatorBaseline::kParc:
      return "PARC";
    case EstimatorBaseline::kHScore:
      return "H-Score";
  }
  return "?";
}

TargetEvaluation EvaluateEstimatorBaseline(
    zoo::ModelZoo* zoo, size_t target_dataset, EstimatorBaseline baseline,
    zoo::FineTuneMethod evaluation_method) {
  const zoo::Modality modality = zoo->datasets()[target_dataset].modality;
  std::vector<size_t> model_ids = zoo->ModelsOfModality(modality);
  zoo->FillScores(baseline, model_ids, {target_dataset});
  std::vector<double> predicted;
  predicted.reserve(model_ids.size());
  for (size_t m : model_ids) {
    predicted.push_back(zoo->Score(baseline, m, target_dataset));
  }
  return Finish(zoo, target_dataset, std::move(model_ids),
                std::move(predicted), evaluation_method);
}

TargetEvaluation EvaluateRandomBaseline(zoo::ModelZoo* zoo,
                                        size_t target_dataset, uint64_t seed,
                                        zoo::FineTuneMethod evaluation_method) {
  const zoo::Modality modality = zoo->datasets()[target_dataset].modality;
  std::vector<size_t> model_ids = zoo->ModelsOfModality(modality);
  Rng rng(seed);
  std::vector<double> predicted(model_ids.size());
  for (double& p : predicted) p = rng.NextDouble();
  return Finish(zoo, target_dataset, std::move(model_ids),
                std::move(predicted), evaluation_method);
}

}  // namespace tg::core
