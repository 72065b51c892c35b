// Transferability estimator playground: scores a handful of models on one
// target dataset with all four implemented estimators (LogME, LEEP, NCE,
// PARC) and shows how each correlates with actual fine-tuning accuracy --
// the "feature-based model selection" family from the paper's §II-A.
#include <cstdio>

#include "core/baselines.h"
#include "numeric/stats.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "zoo/model_zoo.h"

int main() {
  using namespace tg;  // NOLINT(build/namespaces)
  SetLogLevel(LogLevel::kWarning);

  zoo::ModelZooConfig zoo_config;
  zoo_config.catalog.num_image_models = 60;
  zoo::ModelZoo zoo(zoo_config);

  size_t target = 0;
  for (size_t d : zoo.EvaluationTargets(zoo::Modality::kImage)) {
    if (zoo.datasets()[d].name == "pets") target = d;
  }
  std::printf("target: %s\n\n", zoo.datasets()[target].name.c_str());

  // Per-estimator correlation with the fine-tuning ground truth.
  TablePrinter summary({"estimator", "pearson", "spearman", "top-5 acc"});
  for (core::EstimatorBaseline baseline :
       {core::EstimatorBaseline::kLogMe, core::EstimatorBaseline::kLeep,
        core::EstimatorBaseline::kNce, core::EstimatorBaseline::kParc,
        core::EstimatorBaseline::kHScore}) {
    core::TargetEvaluation eval =
        core::EvaluateEstimatorBaseline(&zoo, target, baseline);
    summary.AddRow({core::EstimatorBaselineName(baseline),
                    FormatDouble(eval.pearson, 3),
                    FormatDouble(eval.spearman, 3),
                    FormatDouble(eval.TopKMeanAccuracy(5), 3)});
  }
  summary.Print();

  // Raw scores for a few individual models.
  std::printf("\nper-model scores (first 8 models):\n");
  TablePrinter table(
      {"model", "LogME", "LEEP", "NCE", "PARC", "H-Score", "actual"});
  const auto models = zoo.ModelsOfModality(zoo::Modality::kImage);
  for (size_t i = 0; i < 8; ++i) {
    const size_t m = models[i];
    table.AddRow({zoo.models()[m].name,
                  FormatDouble(zoo.Score(zoo::Estimator::kLogMe, m, target), 3),
                  FormatDouble(zoo.Score(zoo::Estimator::kLeep, m, target), 3),
                  FormatDouble(zoo.Score(zoo::Estimator::kNce, m, target), 3),
                  FormatDouble(zoo.Score(zoo::Estimator::kParc, m, target), 1),
                  FormatDouble(zoo.Score(zoo::Estimator::kHScore, m, target),
                               2),
                  FormatDouble(zoo.FineTuneAccuracy(m, target), 3)});
  }
  table.Print();
  return 0;
}
