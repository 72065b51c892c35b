// Non-learning baselines from the paper's evaluation: direct transferability
// ranking (LogME / LEEP / NCE / PARC) and random selection.
#ifndef TG_CORE_BASELINES_H_
#define TG_CORE_BASELINES_H_

#include <cstdint>

#include "core/pipeline.h"
#include "zoo/model_zoo.h"

namespace tg::core {

// The zoo's estimator enum: the baseline ranks by that estimator's scores.
using EstimatorBaseline = zoo::Estimator;

const char* EstimatorBaselineName(EstimatorBaseline baseline);

// Ranks models by the estimator's raw score on the target dataset.
TargetEvaluation EvaluateEstimatorBaseline(
    zoo::ModelZoo* zoo, size_t target_dataset, EstimatorBaseline baseline,
    zoo::FineTuneMethod evaluation_method =
        zoo::FineTuneMethod::kFullFineTune);

// Random scores (seeded); the paper's Fig. 2 "Random" strategy.
TargetEvaluation EvaluateRandomBaseline(
    zoo::ModelZoo* zoo, size_t target_dataset, uint64_t seed,
    zoo::FineTuneMethod evaluation_method =
        zoo::FineTuneMethod::kFullFineTune);

}  // namespace tg::core

#endif  // TG_CORE_BASELINES_H_
