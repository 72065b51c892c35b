// The end-to-end TransferGraph pipeline (paper Fig. 5, stages 2-4):
// build the graph (leave-one-out on the target), learn node embeddings with
// the configured graph learner, assemble the supervised table from training
// history, fit the prediction model, and score all models on the target.
#ifndef TG_CORE_PIPELINE_H_
#define TG_CORE_PIPELINE_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/feature_table.h"
#include "core/graph_builder.h"
#include "core/strategy.h"
#include "embedding/node2vec.h"
#include "gnn/gat.h"
#include "gnn/link_prediction.h"
#include "gnn/sage.h"
#include "zoo/model_zoo.h"

namespace tg::core {

struct PipelineConfig {
  Strategy strategy;
  GraphBuildOptions graph;
  Node2VecConfig node2vec;  // dim defaults to the paper's 128
  gnn::SageConfig sage;
  gnn::GatConfig gat;
  gnn::LinkPredictionConfig link_prediction;
  PredictorSettings predictor;
  // When > 0, dataset representations are PCA-reduced to this many
  // dimensions before becoming GNN node features (appendix A: very
  // high-dimensional representations hurt GNN learners on the small graph).
  size_t node_feature_pca_dim = 0;
  // Ground truth used to *evaluate* predictions on the target; the history
  // edges / training labels use graph.history_method (paper Fig. 11b keeps
  // an old-method graph while evaluating against new-method accuracy).
  zoo::FineTuneMethod evaluation_method = zoo::FineTuneMethod::kFullFineTune;
  // Cold-start scenario (paper §VII-C): no fine-tuning history exists, so
  // the prediction model trains on normalized LogME pseudo-labels instead of
  // fine-tuning accuracy. Combine with graph.include_accuracy_edges = false.
  bool use_transferability_labels = false;
  uint64_t seed = 2024;
};

// Outcome of scoring every model against one target dataset.
struct TargetEvaluation {
  size_t target_dataset = 0;
  std::string target_name;
  std::vector<size_t> model_indices;
  std::vector<double> predicted;
  std::vector<double> actual;
  double pearson = 0.0;
  double spearman = 0.0;
  // Degradation bookkeeping (resumable sweeps): whether this evaluation
  // came from the metadata-only fallback strategy, how many extra attempts
  // it took, and -- when even the fallback failed -- the error text.
  bool degraded = false;
  int retries = 0;
  bool failed = false;
  std::string error;

  // Mean actual fine-tuning accuracy of the k models with the highest
  // predicted scores (the paper's Fig. 2 metric).
  double TopKMeanAccuracy(int k) const;
};

// Knobs for EvaluateAllTargetsResumable.
struct SweepOptions {
  // When non-empty, completed targets are checkpointed here (atomically)
  // after each finish, and a matching checkpoint is loaded on entry so a
  // restarted sweep skips already-evaluated targets.
  std::string checkpoint_path;
  // When a target throws, retry it once with the degraded strategy
  // (metadata-only features, no graph learner) before declaring it failed.
  bool degrade_on_failure = true;
};

// Outcome of a resumable sweep: per-target evaluations (in
// EvaluationTargets order) plus counters describing what the fault
// machinery had to do. `complete` is false iff any target failed even
// after the degraded retry, or was left unstarted by a drain request;
// failed slots carry failed=true and the error.
struct SweepResult {
  std::vector<TargetEvaluation> evaluations;
  size_t resumed = 0;   // targets restored from the checkpoint
  size_t retried = 0;   // targets that needed a degraded retry attempt
  size_t degraded = 0;  // targets whose result came from the fallback
  size_t failed = 0;    // targets with no result at all
  std::vector<std::string> errors;
  bool complete = true;
  // True iff a drain request (RequestSweepDrain, e.g. from a SIGTERM
  // handler) stopped the sweep early; completed targets are checkpointed
  // as usual and unstarted targets are simply left for a resumed run.
  bool drained = false;
};

// Cooperative graceful-shutdown flag for sweeps. RequestSweepDrain is
// async-signal-safe (one atomic store): tg_cli's SIGTERM/SIGINT handler
// calls it so an orchestrator can drain a worker -- the in-flight target
// finishes, state is checkpointed / leases released, and the process exits
// cleanly instead of being killed mid-write.
void RequestSweepDrain();
bool SweepDrainRequested();
void ClearSweepDrain();  // tests / repeated sweeps within one process

// The smallest strategy that still yields a ranking for every model:
// metadata-only features need no graph, no embedding training, and no
// dataset representations. Both the resumable sweep's once-degraded retry
// and the distributed worker's fallback use exactly this transform so their
// degraded results are bit-identical.
PipelineConfig DegradedFallbackConfig(const PipelineConfig& config);

class Pipeline {
 public:
  // The zoo must outlive the pipeline. One pipeline per modality.
  Pipeline(zoo::ModelZoo* zoo, zoo::Modality modality);

  // Full leave-one-out evaluation of one target dataset. Thread-safe: the
  // embedding cache and the zoo's caches are internally synchronized.
  TargetEvaluation EvaluateTarget(const PipelineConfig& config,
                                  size_t target_dataset);

  // Evaluates every evaluation-target dataset of the modality, in parallel
  // across the global thread pool (TG_THREADS). Bit-identical results for
  // any thread count given a fixed config seed. Both sweep drivers fill the
  // zoo caches the targets' graphs read once, before they fan out.
  std::vector<TargetEvaluation> EvaluateAllTargets(
      const PipelineConfig& config);

  // EvaluateAllTargets with graceful degradation and optional resume: a
  // target that throws (I/O fault, predictor failure, non-finite
  // predictions) is retried once with the degraded strategy instead of
  // taking the sweep down; with a checkpoint path, completed targets are
  // persisted after each finish and skipped on restart. Resumed sweeps are
  // bit-identical to uninterrupted ones (asserted by
  // tests/chaos_pipeline_test.cc). See docs/robustness.md.
  SweepResult EvaluateAllTargetsResumable(const PipelineConfig& config,
                                          const SweepOptions& options);

  // EvaluateTarget with every failure mode (exceptions, injected faults,
  // non-finite predictions) converted into a false return plus error text.
  // Public so the distributed sweep worker (core/distributed_sweep.h) gets
  // exactly the resumable sweep's per-target semantics.
  bool TryEvaluateTarget(const PipelineConfig& config, size_t target_dataset,
                         TargetEvaluation* out, std::string* error);

  // Node embeddings for the given graph/learner configuration (cached per
  // configuration; shared across prediction models and feature sets).
  const Matrix& EmbeddingsFor(const PipelineConfig& config,
                              const BuiltGraph& built);

  zoo::Modality modality() const { return modality_; }
  zoo::ModelZoo* zoo() const { return zoo_; }

 private:
  std::string EmbeddingCacheKey(const PipelineConfig& config) const;
  // Node feature matrix for GNN learners: dataset representation for
  // dataset nodes, metadata for model nodes, plus node-type indicators.
  Matrix BuildNodeFeatures(const PipelineConfig& config,
                           const BuiltGraph& built);

  zoo::ModelZoo* zoo_;
  zoo::Modality modality_;
  // Guarded by embedding_mu_: concurrent targets insert distinct keys;
  // references stay valid under unordered_map insertion.
  std::mutex embedding_mu_;
  std::unordered_map<std::string, Matrix> embedding_cache_;
};

}  // namespace tg::core

#endif  // TG_CORE_PIPELINE_H_
