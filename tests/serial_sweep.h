// Independent reference for the sweep driver: EvaluateTarget over every
// evaluation target of the pipeline's modality, one after another, with no
// cache pre-fill, no retry and no fan-out across targets. Tests compare
// EvaluateAllTargetsResumable against it bit for bit.
#ifndef TG_TESTS_SERIAL_SWEEP_H_
#define TG_TESTS_SERIAL_SWEEP_H_

#include <vector>

#include "core/pipeline.h"

namespace tg::core {

inline std::vector<TargetEvaluation> SerialSweep(Pipeline* pipeline,
                                                 const PipelineConfig& config) {
  std::vector<TargetEvaluation> out;
  for (size_t target :
       pipeline->zoo()->EvaluationTargets(pipeline->modality())) {
    out.push_back(pipeline->EvaluateTarget(config, target));
  }
  return out;
}

}  // namespace tg::core

#endif  // TG_TESTS_SERIAL_SWEEP_H_
