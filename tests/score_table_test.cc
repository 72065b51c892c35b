// The zoo's transferability score table: the sweep driver fills it once
// before it fans out, so every (model, public dataset) pair is computed
// exactly once; the filled values are bit-identical at any thread count; and
// a dispatch fault during the pre-fill leaves the sweep's results untouched.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_builder.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serial_sweep.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tg::core {
namespace {

std::unique_ptr<zoo::ModelZoo> SmallZoo() {
  zoo::ModelZooConfig config;
  config.catalog.num_image_models = 48;
  config.catalog.num_text_models = 24;
  config.world.max_samples_per_dataset = 80;
  return std::make_unique<zoo::ModelZoo>(config);
}

// Node2Vec graph features, so the sweep builds graphs; cheap settings.
PipelineConfig N2vConfig() {
  PipelineConfig config;
  config.strategy = Strategy{PredictorKind::kLinearRegression,
                             GraphLearner::kNode2Vec, FeatureSet::kAll};
  config.node2vec.walk.walks_per_node = 6;
  config.node2vec.walk.walk_length = 15;
  config.node2vec.skipgram.dim = 24;
  config.node2vec.skipgram.epochs = 2;
  return config;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name).value();
}

void ExpectSamePredictions(const std::vector<TargetEvaluation>& a,
                           const std::vector<TargetEvaluation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(b[i].failed) << b[i].target_name;
    EXPECT_EQ(a[i].predicted, b[i].predicted) << a[i].target_name;
  }
}

class ScoreTableTest : public ::testing::Test {
 protected:
  ~ScoreTableTest() override {
    fault::ClearFaults();
    SetThreadCount(0);
  }
};

TEST_F(ScoreTableTest, SweepDriverComputesEachDistinctPairOnce) {
  SetThreadCount(4);
  std::unique_ptr<zoo::ModelZoo> zoo = SmallZoo();
  Pipeline pipeline(zoo.get(), zoo::Modality::kImage);
  const uint64_t score_miss = CounterValue("zoo.score_cache.miss");
  const uint64_t embedding_miss =
      CounterValue("zoo.dataset_embedding_cache.miss");
  EXPECT_TRUE(
      pipeline.EvaluateAllTargetsResumable(N2vConfig(), SweepOptions{})
          .complete);
  const size_t pairs = zoo->ModelsOfModality(zoo::Modality::kImage).size() *
                       zoo->PublicDatasets(zoo::Modality::kImage).size();
  EXPECT_EQ(CounterValue("zoo.score_cache.miss") - score_miss, pairs);
  EXPECT_EQ(
      CounterValue("zoo.dataset_embedding_cache.miss") - embedding_miss,
      zoo->DatasetsOfModality(zoo::Modality::kImage).size());
}

TEST_F(ScoreTableTest, FilledScoresAreBitIdenticalAcrossThreadCounts) {
  const zoo::Modality image = zoo::Modality::kImage;
  std::vector<std::unique_ptr<zoo::ModelZoo>> zoos;
  for (const size_t threads : {1, 4}) {
    SetThreadCount(threads);
    zoos.push_back(SmallZoo());
    zoo::ModelZoo& zoo = *zoos.back();
    FillGraphInputs(&zoo, image, GraphBuildOptions{});
    const size_t target = zoo.EvaluationTargets(image)[0];
    for (const zoo::Estimator estimator :
         {zoo::Estimator::kLeep, zoo::Estimator::kNce, zoo::Estimator::kParc,
          zoo::Estimator::kHScore}) {
      zoo.FillScores(estimator, zoo.ModelsOfModality(image), {target});
    }
  }
  zoo::ModelZoo& one = *zoos[0];
  zoo::ModelZoo& four = *zoos[1];
  const std::vector<size_t> models = one.ModelsOfModality(image);
  for (size_t d : one.PublicDatasets(image)) {
    for (size_t m : models) {
      EXPECT_EQ(one.LogMe(m, d), four.LogMe(m, d)) << m << "," << d;
    }
  }
  const size_t target = one.EvaluationTargets(image)[0];
  for (const zoo::Estimator estimator :
       {zoo::Estimator::kLeep, zoo::Estimator::kNce, zoo::Estimator::kParc,
        zoo::Estimator::kHScore}) {
    for (size_t m : models) {
      EXPECT_EQ(one.Score(estimator, m, target),
                four.Score(estimator, m, target));
    }
  }
  for (size_t d : one.DatasetsOfModality(image)) {
    EXPECT_EQ(one.DatasetEmbedding(d, GraphBuildOptions{}.representation),
              four.DatasetEmbedding(d, GraphBuildOptions{}.representation));
  }
}

TEST_F(ScoreTableTest, DispatchFaultDuringPrefillLeavesSweepIntact) {
  SetThreadCount(4);
  std::unique_ptr<zoo::ModelZoo> reference_zoo = SmallZoo();
  Pipeline reference_pipeline(reference_zoo.get(), zoo::Modality::kImage);
  const std::vector<TargetEvaluation> reference =
      SerialSweep(&reference_pipeline, N2vConfig());

  // The pre-fill is the driver's first parallel region, so hit:1 lands in
  // it. Had it landed in a target instead, that target would need a retry.
  std::unique_ptr<zoo::ModelZoo> zoo = SmallZoo();
  Pipeline pipeline(zoo.get(), zoo::Modality::kImage);
  ASSERT_TRUE(fault::InstallSpec("thread_pool.dispatch=hit:1").ok());
  const SweepResult result =
      pipeline.EvaluateAllTargetsResumable(N2vConfig(), SweepOptions{});
  EXPECT_EQ(fault::SiteFired("thread_pool.dispatch"), 1u);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.retried, 0u);
  ExpectSamePredictions(reference, result.evaluations);
}

}  // namespace
}  // namespace tg::core
