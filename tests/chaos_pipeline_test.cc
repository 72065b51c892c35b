// Chaos tests for the resumable leave-one-out sweep: checkpoint resume must
// be bit-identical to an uninterrupted run at any thread count, randomized
// fault schedules must never crash the sweep or tear an artifact, and a
// fault-free rerun after chaos must reproduce the reference exactly.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "core/sweep_checkpoint.h"
#include "serial_sweep.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace tg::core {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

class ChaosPipelineTest : public ::testing::Test {
 protected:
  ChaosPipelineTest() {
    zoo::ModelZooConfig config;
    config.catalog.num_image_models = 48;
    config.catalog.num_text_models = 24;
    config.world.max_samples_per_dataset = 80;
    zoo_ = std::make_unique<zoo::ModelZoo>(config);
    pipeline_ = std::make_unique<Pipeline>(zoo_.get(), zoo::Modality::kImage);
  }

  ~ChaosPipelineTest() override {
    fault::ClearFaults();
    SetThreadCount(0);  // restore the default policy for later tests
  }

  // Cheap sweep config: metadata features need no graph or embeddings, so
  // the 8-target sweep stays fast enough to repeat under chaos schedules.
  static PipelineConfig FastConfig() {
    PipelineConfig config;
    config.strategy = Strategy{PredictorKind::kLinearRegression,
                               GraphLearner::kNone,
                               FeatureSet::kMetadataOnly};
    return config;
  }

  static void ExpectBitIdentical(const std::vector<TargetEvaluation>& a,
                                 const std::vector<TargetEvaluation>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].target_dataset, b[i].target_dataset);
      EXPECT_EQ(a[i].target_name, b[i].target_name);
      EXPECT_EQ(a[i].model_indices, b[i].model_indices) << a[i].target_name;
      EXPECT_EQ(a[i].predicted, b[i].predicted) << a[i].target_name;
      EXPECT_EQ(a[i].actual, b[i].actual) << a[i].target_name;
      EXPECT_EQ(a[i].pearson, b[i].pearson) << a[i].target_name;
      EXPECT_EQ(a[i].spearman, b[i].spearman) << a[i].target_name;
    }
  }

  std::unique_ptr<zoo::ModelZoo> zoo_;
  std::unique_ptr<Pipeline> pipeline_;
};

TEST_F(ChaosPipelineTest, ResumableWithDefaultsMatchesSerialLoop) {
  const PipelineConfig config = FastConfig();
  const std::vector<TargetEvaluation> plain =
      SerialSweep(pipeline_.get(), config);
  const SweepResult resumable =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  EXPECT_TRUE(resumable.complete);
  EXPECT_EQ(resumable.resumed, 0u);
  EXPECT_EQ(resumable.retried, 0u);
  ExpectBitIdentical(plain, resumable.evaluations);
}

TEST_F(ChaosPipelineTest, CheckpointRoundTripsEvaluations) {
  const PipelineConfig config = FastConfig();
  SweepResult reference =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  SweepCheckpoint checkpoint;
  checkpoint.build_git_sha = "test-sha";
  checkpoint.fingerprint =
      SweepFingerprint(config, zoo::Modality::kImage);
  checkpoint.targets = reference.evaluations;
  const std::string path = TempPath("checkpoint_roundtrip.json");
  ASSERT_TRUE(SaveSweepCheckpoint(path, checkpoint).ok());
  Result<SweepCheckpoint> loaded = LoadSweepCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().build_git_sha, "test-sha");
  EXPECT_EQ(loaded.value().fingerprint, checkpoint.fingerprint);
  ExpectBitIdentical(reference.evaluations, loaded.value().targets);

  EXPECT_FALSE(LoadSweepCheckpoint(TempPath("missing.json")).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "{\"schema\":999}").ok());
  EXPECT_FALSE(LoadSweepCheckpoint(path).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "{torn").ok());
  EXPECT_FALSE(LoadSweepCheckpoint(path).ok());

  // Checkpoints (and shards) come from outside the program: a field of the
  // wrong type, a negative count, or a number no integer field can hold is
  // rejected before any cast.
  const TargetEvaluation& first = reference.evaluations[0];
  std::string entry;
  AppendTargetEvaluationJson(first, &entry);
  const std::string dataset_field =
      "\"target_dataset\":" + std::to_string(first.target_dataset);
  const std::string indices_field =
      "\"model_indices\":[" + std::to_string(first.model_indices[0]);
  const std::pair<std::string, std::string> corruptions[] = {
      {"\"degraded\":false", "\"degraded\":\"yes\""},
      {"\"retries\":0", "\"retries\":-3"},
      {"\"retries\":0", "\"retries\":\"x\""},
      {"\"retries\":0", "\"retries\":1e300"},
      {"\"retries\":0", "\"retries\":2147483648"},
      {dataset_field, "\"target_dataset\":1e300"},
      {dataset_field, "\"target_dataset\":18446744073709551616"},
      {indices_field, "\"model_indices\":[1e300"},
      {indices_field, "\"model_indices\":[-1"},
  };
  for (const auto& [field, bad] : corruptions) {
    std::string corrupted = entry;
    const size_t at = corrupted.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    corrupted.replace(at, field.size(), bad);
    ASSERT_TRUE(WriteFileAtomic(path,
                                "{\"schema\":1,\"targets\":[" + corrupted +
                                    "]}")
                    .ok());
    Result<SweepCheckpoint> rejected = LoadSweepCheckpoint(path);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(ChaosPipelineTest, EvaluateStrategyFailsInsteadOfDegrading) {
  const PipelineConfig config = FastConfig();
  ASSERT_TRUE(fault::InstallSpec("pipeline.target=hit:1").ok());
  EXPECT_THROW(EvaluateStrategy(pipeline_.get(), config), std::runtime_error);
  fault::ClearFaults();
  const StrategySummary summary = EvaluateStrategy(pipeline_.get(), config);
  const StrategySummary serial =
      Summarize(config.strategy.DisplayName(),
                SerialSweep(pipeline_.get(), config));
  EXPECT_EQ(summary.per_target_pearson, serial.per_target_pearson);
}

TEST_F(ChaosPipelineTest, ResumeIsBitIdenticalAcrossThreadCounts) {
  const PipelineConfig config = FastConfig();
  const std::vector<TargetEvaluation> reference =
      SerialSweep(pipeline_.get(), config);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetThreadCount(threads);
    const std::string path = TempPath(
        "checkpoint_resume_" + std::to_string(threads) + ".json");
    std::remove(path.c_str());

    // Interrupted first pass: after 3 completed targets, every further
    // attempt dies before evaluation; degradation is off, so the failed
    // targets stay un-checkpointed.
    SweepOptions options;
    options.checkpoint_path = path;
    options.degrade_on_failure = false;
    ASSERT_TRUE(fault::InstallSpec("pipeline.target=after:3").ok());
    const SweepResult interrupted =
        pipeline_->EvaluateAllTargetsResumable(config, options);
    fault::ClearFaults();
    EXPECT_FALSE(interrupted.complete);
    EXPECT_GT(interrupted.failed, 0u);
    ASSERT_TRUE(FileExists(path)) << "completed targets must be checkpointed";

    // Second pass: resumes the completed targets, computes the rest.
    const SweepResult resumed =
        pipeline_->EvaluateAllTargetsResumable(config, options);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.resumed, 3u);
    ExpectBitIdentical(reference, resumed.evaluations);
  }
}

TEST_F(ChaosPipelineTest, StaleCheckpointIsIgnoredOnConfigChange) {
  PipelineConfig config = FastConfig();
  const std::string path = TempPath("checkpoint_stale.json");
  std::remove(path.c_str());
  SweepOptions options;
  options.checkpoint_path = path;
  const SweepResult first =
      pipeline_->EvaluateAllTargetsResumable(config, options);
  EXPECT_TRUE(first.complete);
  ASSERT_TRUE(FileExists(path));

  config.seed += 1;  // different sweep: the old checkpoint must not splice in
  const SweepResult second =
      pipeline_->EvaluateAllTargetsResumable(config, options);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.resumed, 0u);
}

TEST_F(ChaosPipelineTest, DegradedRetryKeepsSweepComplete) {
  const PipelineConfig config = FastConfig();
  // Every first attempt at each target fails; the metadata-only retry (the
  // same strategy here, but a fresh attempt after the once-latched fault
  // cleared) must rescue the sweep.
  ASSERT_TRUE(fault::InstallSpec("pipeline.target=hit:1").ok());
  const SweepResult result =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  fault::ClearFaults();
  EXPECT_TRUE(result.complete) << "degraded retry should rescue the target";
  EXPECT_EQ(result.retried, 1u);
  EXPECT_EQ(result.degraded, 1u);
  size_t degraded_count = 0;
  for (const TargetEvaluation& eval : result.evaluations) {
    EXPECT_FALSE(eval.failed);
    if (eval.degraded) {
      ++degraded_count;
      EXPECT_EQ(eval.retries, 1);
    }
  }
  EXPECT_EQ(degraded_count, 1u);
}

TEST_F(ChaosPipelineTest, RandomizedChaosSchedulesNeverCrashOrTear) {
  const PipelineConfig config = FastConfig();
  const std::vector<TargetEvaluation> reference =
      SerialSweep(pipeline_.get(), config);
  const std::string path = TempPath("checkpoint_chaos.json");

  // Deterministic "randomized" schedules: seeded probability rules across
  // every fault site the sweep traverses. alloc is excluded -- an injected
  // bad_alloc surfacing in a destructor would terminate by design.
  const char* schedules[] = {
      "pipeline.target=prob:0.4:seed:1;checkpoint.write=prob:0.3:seed:2",
      "thread_pool.dispatch=prob:0.05:seed:3",
      "atomic_file.write=prob:0.5:seed:4;pipeline.target=prob:0.2:seed:5",
      "checkpoint.read=always;pipeline.target=prob:0.5:seed:6",
      "atomic_file.crash_before_rename=prob:0.5:seed:7",
      "thread_pool.dispatch=prob:0.02:seed:8;"
      "checkpoint.write=prob:0.5:seed:9;pipeline.target=prob:0.3:seed:10",
  };
  for (const char* schedule : schedules) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    SweepOptions options;
    options.checkpoint_path = path;
    ASSERT_TRUE(fault::InstallSpec(schedule).ok()) << schedule;
    const SweepResult chaotic =
        pipeline_->EvaluateAllTargetsResumable(config, options);
    fault::ClearFaults();

    // No crash (we got here), every slot accounted for, and any evaluation
    // that did complete is bit-identical to the reference run.
    ASSERT_EQ(chaotic.evaluations.size(), reference.size()) << schedule;
    for (size_t i = 0; i < chaotic.evaluations.size(); ++i) {
      const TargetEvaluation& eval = chaotic.evaluations[i];
      if (eval.failed) continue;
      EXPECT_EQ(eval.predicted, reference[i].predicted)
          << schedule << " corrupted " << eval.target_name;
    }

    // The checkpoint is either absent or loadable -- never torn. (A
    // crash_before_rename fault leaves a .tmp, which must never shadow the
    // real file.)
    if (FileExists(path)) {
      Result<SweepCheckpoint> loaded = LoadSweepCheckpoint(path);
      EXPECT_TRUE(loaded.ok())
          << schedule << " tore the checkpoint: "
          << loaded.status().ToString();
    }
  }

  // Fault-free rerun from scratch: bit-identical to the reference.
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  const SweepResult clean =
      pipeline_->EvaluateAllTargetsResumable(config, SweepOptions{});
  EXPECT_TRUE(clean.complete);
  ExpectBitIdentical(reference, clean.evaluations);
}

}  // namespace
}  // namespace tg::core
