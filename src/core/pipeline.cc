#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/sweep_checkpoint.h"
#include "util/backoff.h"
#include "numeric/pca.h"
#include "numeric/stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tg::core {
namespace {

// Constant-initialized so a SIGTERM arriving at any point of process
// lifetime can store to it; sweeps poll it between targets.
std::atomic<bool> g_sweep_drain{false};

// Fills the zoo caches that the pending targets' graphs read, before a sweep
// fans out: one parallel fill instead of one per target, so concurrent
// targets only read and no pair is computed twice. Two or more leave-one-out
// fills add up to the fill with no target excluded. Best effort: if it
// fails, each target fills its own columns, as a lone query does.
void PrefillSweep(zoo::ModelZoo* zoo, zoo::Modality modality,
                  const PipelineConfig& config,
                  const std::vector<size_t>& pending) {
  if (!config.strategy.UsesGraphFeatures() || pending.empty()) return;
  TG_TRACE_SPAN("sweep_prefill");
  GraphBuildOptions options = config.graph;
  options.exclude_target.reset();
  if (pending.size() == 1) options.exclude_target = pending[0];
  try {
    FillGraphInputs(zoo, modality, options);
  } catch (const std::exception& e) {
    TG_LOG(Warning) << "sweep pre-fill failed (" << e.what()
                    << "); targets fill their own scores";
  }
}

}  // namespace

void RequestSweepDrain() {
  g_sweep_drain.store(true, std::memory_order_relaxed);
}

bool SweepDrainRequested() {
  return g_sweep_drain.load(std::memory_order_relaxed);
}

void ClearSweepDrain() {
  g_sweep_drain.store(false, std::memory_order_relaxed);
}

PipelineConfig DegradedFallbackConfig(const PipelineConfig& config) {
  PipelineConfig fallback = config;
  fallback.strategy.features = FeatureSet::kMetadataOnly;
  fallback.strategy.learner = GraphLearner::kNone;
  return fallback;
}

double TargetEvaluation::TopKMeanAccuracy(int k) const {
  TG_CHECK_GT(k, 0);
  TG_CHECK(!predicted.empty());
  std::vector<size_t> order(predicted.size());
  std::iota(order.begin(), order.end(), 0);
  // Only the top k matter; partial_sort is O(n log k) vs O(n log n).
  const size_t take = std::min<size_t>(static_cast<size_t>(k), order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(take), order.end(),
                    [&](size_t a, size_t b) {
                      return predicted[a] > predicted[b];
                    });
  double acc = 0.0;
  for (size_t i = 0; i < take; ++i) acc += actual[order[i]];
  return acc / static_cast<double>(take);
}

Pipeline::Pipeline(zoo::ModelZoo* zoo, zoo::Modality modality)
    : zoo_(zoo), modality_(modality) {}

std::string Pipeline::EmbeddingCacheKey(const PipelineConfig& config) const {
  const GraphBuildOptions& g = config.graph;
  std::string key = GraphLearnerName(config.strategy.learner);
  key += "|t=";
  key += g.exclude_target.has_value() ? std::to_string(*g.exclude_target)
                                      : "none";
  key += "|acc=" + std::to_string(g.accuracy_threshold);
  key += "|tr=" + std::to_string(g.transferability_threshold);
  key += "|ia=" + std::to_string(g.include_accuracy_edges);
  key += "|it=" + std::to_string(g.include_transferability_edges);
  key += "|hr=" + std::to_string(g.history_ratio);
  key += "|hm=" + std::string(zoo::FineTuneMethodName(g.history_method));
  key += "|rep=" + std::to_string(static_cast<int>(g.representation));
  key += "|gseed=" + std::to_string(g.seed);
  key += "|seed=" + std::to_string(config.seed);
  key += "|dim=" + std::to_string(config.node2vec.skipgram.dim);
  key += "|pca=" + std::to_string(config.node_feature_pca_dim);
  return key;
}

Matrix Pipeline::BuildNodeFeatures(const PipelineConfig& config,
                                   const BuiltGraph& built) {
  TG_TRACE_SPAN("node_features");
  // Feature layout: [type(2) | dataset representation | model metadata].
  // Collect the dataset representations (optionally PCA-reduced).
  std::vector<size_t> dataset_ids;
  dataset_ids.reserve(built.dataset_node.size());
  for (const auto& [dataset, node] : built.dataset_node) {
    (void)node;
    dataset_ids.push_back(dataset);
  }
  const size_t raw_dim =
      zoo_->DatasetEmbedding(dataset_ids.front(), config.graph.representation)
          .size();
  Matrix representations(dataset_ids.size(), raw_dim);
  for (size_t i = 0; i < dataset_ids.size(); ++i) {
    representations.SetRow(
        i, zoo_->DatasetEmbedding(dataset_ids[i],
                                  config.graph.representation));
  }
  if (config.node_feature_pca_dim > 0 &&
      config.node_feature_pca_dim < raw_dim) {
    Pca pca;
    Status fit = pca.Fit(representations, config.node_feature_pca_dim);
    TG_CHECK_MSG(fit.ok(), fit.ToString().c_str());
    representations = pca.Transform(representations);
  }
  const size_t repr_dim = representations.cols();

  const size_t meta_dim = static_cast<size_t>(zoo::kNumArchitectures) + 4;
  const size_t dim = 2 + repr_dim + meta_dim;
  Matrix features(built.graph.num_nodes(), dim);

  for (size_t i = 0; i < dataset_ids.size(); ++i) {
    const NodeId node = built.dataset_node.at(dataset_ids[i]);
    features(node, 0) = 1.0;
    for (size_t c = 0; c < repr_dim; ++c) {
      features(node, 2 + c) = representations(i, c);
    }
  }
  for (const auto& [model, node] : built.model_node) {
    features(node, 1) = 1.0;
    const zoo::ModelInfo& m = zoo_->models()[model];
    const size_t base = 2 + repr_dim;
    features(node, base + static_cast<size_t>(m.architecture)) = 1.0;
    features(node, base + zoo::kNumArchitectures + 0) =
        std::log10(m.num_parameters_millions) / 3.0;
    features(node, base + zoo::kNumArchitectures + 1) =
        static_cast<double>(m.input_size) / 1000.0;
    features(node, base + zoo::kNumArchitectures + 2) = m.pretrain_accuracy;
    features(node, base + zoo::kNumArchitectures + 3) =
        std::log10(std::max(m.memory_mb, 1.0)) / 4.0;
  }
  return features;
}

const Matrix& Pipeline::EmbeddingsFor(const PipelineConfig& config,
                                      const BuiltGraph& built) {
  TG_CHECK(config.strategy.learner != GraphLearner::kNone);
  static obs::Counter& cache_hit = obs::MetricsRegistry::Instance().GetCounter(
      "pipeline.embedding_cache.hit");
  static obs::Counter& cache_miss =
      obs::MetricsRegistry::Instance().GetCounter(
          "pipeline.embedding_cache.miss");
  const std::string key = EmbeddingCacheKey(config);
  {
    std::lock_guard<std::mutex> lock(embedding_mu_);
    auto it = embedding_cache_.find(key);
    if (it != embedding_cache_.end()) {
      cache_hit.Increment();
      return it->second;
    }
  }
  cache_miss.Increment();
  // Train outside the lock so concurrent targets (distinct keys in the
  // leave-one-out sweep) overlap; duplicate work on the same key is
  // deterministic-identical and the first insert wins.
  obs::WallTimer timer;
  TG_TRACE_SPAN2("embedding_train",
                 GraphLearnerName(config.strategy.learner));
  Matrix embeddings;
  switch (config.strategy.learner) {
    case GraphLearner::kNode2Vec:
    case GraphLearner::kNode2VecPlus: {
      Node2VecConfig n2v = config.node2vec;
      n2v.walk.extended =
          config.strategy.learner == GraphLearner::kNode2VecPlus;
      embeddings = Node2VecEmbed(built.graph, n2v, config.seed);
      break;
    }
    case GraphLearner::kGraphSage: {
      Rng rng(config.seed);
      const Matrix features = BuildNodeFeatures(config, built);
      gnn::EdgeIndex edges =
          gnn::BuildEdgeIndex(built.graph, /*add_self_loops=*/true);
      gnn::GraphSage encoder(edges, features.cols(), config.sage, &rng);
      embeddings = gnn::TrainLinkPrediction(built.graph, &encoder, features,
                                            built.negative_edges,
                                            config.link_prediction, &rng)
                       .embeddings;
      break;
    }
    case GraphLearner::kGat: {
      Rng rng(config.seed);
      const Matrix features = BuildNodeFeatures(config, built);
      gnn::EdgeIndex edges =
          gnn::BuildEdgeIndex(built.graph, /*add_self_loops=*/true);
      gnn::Gat encoder(edges, features.cols(), config.gat, &rng);
      embeddings = gnn::TrainLinkPrediction(built.graph, &encoder, features,
                                            built.negative_edges,
                                            config.link_prediction, &rng)
                       .embeddings;
      break;
    }
    case GraphLearner::kNone:
      break;
  }
  TG_LOG(Debug) << "graph learner " << GraphLearnerName(config.strategy.learner)
                << " trained in " << timer.ElapsedSeconds() << "s";
  std::lock_guard<std::mutex> lock(embedding_mu_);
  return embedding_cache_.emplace(key, std::move(embeddings)).first->second;
}

TargetEvaluation Pipeline::EvaluateTarget(const PipelineConfig& config,
                                          size_t target_dataset) {
  TG_CHECK_LT(target_dataset, zoo_->num_datasets());
  TG_CHECK(zoo_->datasets()[target_dataset].modality == modality_);
  TG_TRACE_SPAN2("evaluate_target", zoo_->datasets()[target_dataset].name);

  PipelineConfig cfg = config;
  cfg.graph.exclude_target = target_dataset;

  // --- Graph features (when the strategy uses them) ---
  BuiltGraph built;
  const Matrix* embeddings = nullptr;
  if (cfg.strategy.UsesGraphFeatures()) {
    built = BuildModelZooGraph(zoo_, modality_, cfg.graph);
    embeddings = &EmbeddingsFor(cfg, built);
  }

  FeatureAssembler assembler(zoo_, modality_, cfg.strategy.features,
                             cfg.graph.representation,
                             embeddings != nullptr ? &built : nullptr,
                             embeddings);

  // --- Training table: history on every public dataset except the target ---
  std::vector<std::pair<size_t, size_t>> train_pairs;
  const std::vector<size_t> model_ids = zoo_->ModelsOfModality(modality_);
  for (size_t d : zoo_->PublicDatasets(modality_)) {
    if (d == target_dataset) continue;
    for (size_t m : model_ids) train_pairs.emplace_back(m, d);
  }
  // Appendix B: when only a fraction of the training history is available,
  // the supervised table shrinks along with the graph edges.
  if (cfg.graph.history_ratio < 1.0) {
    Rng subsample_rng(cfg.graph.seed ^
                      (0x9E3779B97F4A7C15ULL * (target_dataset + 1)));
    std::vector<std::pair<size_t, size_t>> kept;
    for (const auto& pair : train_pairs) {
      if (subsample_rng.NextBernoulli(cfg.graph.history_ratio)) {
        kept.push_back(pair);
      }
    }
    if (!kept.empty()) train_pairs = std::move(kept);
  }
  ml::TabularDataset train = [&] {
    TG_TRACE_SPAN("train_table");
    return assembler.BuildTable(train_pairs, cfg.graph.history_method);
  }();
  if (cfg.use_transferability_labels) {
    for (size_t i = 0; i < train_pairs.size(); ++i) {
      train.y[i] = assembler.NormalizedLogMe(train_pairs[i].first,
                                             train_pairs[i].second);
    }
  }

  PredictorKind kind = cfg.strategy.predictor;
  if (kind == PredictorKind::kAuto) {
    kind = SelectPredictorByCv(train, cfg.predictor, /*folds=*/4, cfg.seed);
    TG_LOG(Debug) << "auto predictor for "
                  << zoo_->datasets()[target_dataset].name << ": "
                  << PredictorKindName(kind);
  }
  std::unique_ptr<ml::Regressor> predictor = MakePredictor(kind,
                                                           cfg.predictor);
  {
    TG_TRACE_SPAN2("predictor_fit", PredictorKindName(kind));
    Status fit = predictor->Fit(train);
    // Thrown, not TG_CHECKed: a singular fit on one target is a per-target
    // failure the resumable sweep can degrade around, not a process bug.
    if (!fit.ok()) {
      throw std::runtime_error("predictor fit failed: " + fit.ToString());
    }
  }

  // --- Prediction set: every model against the target ---
  TargetEvaluation eval;
  eval.target_dataset = target_dataset;
  eval.target_name = zoo_->datasets()[target_dataset].name;
  eval.model_indices = model_ids;
  eval.predicted.reserve(model_ids.size());
  eval.actual.reserve(model_ids.size());
  {
    TG_TRACE_SPAN("target_scoring");
    for (size_t m : model_ids) {
      eval.predicted.push_back(
          predictor->Predict(assembler.Row(m, target_dataset)));
      eval.actual.push_back(
          zoo_->FineTuneAccuracy(m, target_dataset, cfg.evaluation_method));
    }
  }
  eval.pearson = PearsonCorrelation(eval.predicted, eval.actual);
  eval.spearman = SpearmanCorrelation(eval.predicted, eval.actual);
  return eval;
}

std::vector<TargetEvaluation> Pipeline::EvaluateAllTargets(
    const PipelineConfig& config) {
  // The leave-one-out cells are independent (MetaGL/GLEMOS-style benchmark
  // shape): fan targets out across the pool. Every per-target computation
  // seeds its own randomness from the config, and the shared caches (zoo
  // scores, embeddings) memoize deterministic values, so the output is
  // bit-identical for any thread count.
  const std::vector<size_t> targets = zoo_->EvaluationTargets(modality_);
  TG_TRACE_SPAN("evaluate_all_targets");
  PrefillSweep(zoo_, modality_, config, targets);
  std::vector<TargetEvaluation> out(targets.size());
  ParallelFor(0, targets.size(), 1,
              [&](size_t begin, size_t end, size_t /*chunk*/) {
                for (size_t i = begin; i < end; ++i) {
                  out[i] = EvaluateTarget(config, targets[i]);
                }
              });
  return out;
}

bool Pipeline::TryEvaluateTarget(const PipelineConfig& config,
                                 size_t target_dataset, TargetEvaluation* out,
                                 std::string* error) {
  try {
    if (TG_FAULT_POINT("pipeline.target")) {
      throw std::runtime_error("injected fault at pipeline.target");
    }
    TargetEvaluation eval = EvaluateTarget(config, target_dataset);
    for (double p : eval.predicted) {
      if (!std::isfinite(p)) {
        throw std::runtime_error("non-finite prediction for " +
                                 eval.target_name);
      }
    }
    *out = std::move(eval);
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

SweepResult Pipeline::EvaluateAllTargetsResumable(
    const PipelineConfig& config, const SweepOptions& options) {
  static obs::Counter& retries_counter =
      obs::MetricsRegistry::Instance().GetCounter("pipeline.target_retries");
  static obs::Counter& degraded_counter =
      obs::MetricsRegistry::Instance().GetCounter("pipeline.target_degraded");
  static obs::Counter& failures_counter =
      obs::MetricsRegistry::Instance().GetCounter("pipeline.target_failures");
  static obs::Counter& checkpoint_write_failures =
      obs::MetricsRegistry::Instance().GetCounter(
          "pipeline.checkpoint_write_failures");
  // Sweep heartbeat: progress gauges for /metrics and /statusz (the live
  // telemetry plane), refreshed per target. Write-only relaxed stores --
  // nothing numeric ever reads them back.
  static obs::Gauge& targets_total_gauge =
      obs::MetricsRegistry::Instance().GetGauge("sweep.targets_total");
  static obs::Gauge& targets_done_gauge =
      obs::MetricsRegistry::Instance().GetGauge("sweep.targets_done");
  static obs::Gauge& targets_retried_gauge =
      obs::MetricsRegistry::Instance().GetGauge("sweep.targets_retried");
  static obs::Gauge& targets_degraded_gauge =
      obs::MetricsRegistry::Instance().GetGauge("sweep.targets_degraded");
  static obs::Gauge& targets_failed_gauge =
      obs::MetricsRegistry::Instance().GetGauge("sweep.targets_failed");

  const std::vector<size_t> targets = zoo_->EvaluationTargets(modality_);
  TG_TRACE_SPAN("evaluate_all_targets");
  SweepResult result;
  result.evaluations.resize(targets.size());
  std::vector<char> done(targets.size(), 0);
  const std::string fingerprint = SweepFingerprint(config, modality_);

  // --- Resume: splice in completed targets from a matching checkpoint ---
  if (!options.checkpoint_path.empty()) {
    Result<SweepCheckpoint> loaded =
        LoadSweepCheckpoint(options.checkpoint_path);
    if (loaded.ok()) {
      const SweepCheckpoint& checkpoint = loaded.value();
      if (checkpoint.fingerprint != fingerprint) {
        TG_LOG(Warning) << "ignoring checkpoint " << options.checkpoint_path
                        << ": sweep config changed";
      } else if (checkpoint.build_git_sha != GetBuildInfo().git_sha) {
        TG_LOG(Warning) << "ignoring checkpoint " << options.checkpoint_path
                        << ": written by a different build ("
                        << checkpoint.build_git_sha << ")";
      } else {
        for (const TargetEvaluation& eval : checkpoint.targets) {
          for (size_t i = 0; i < targets.size(); ++i) {
            if (targets[i] == eval.target_dataset && !done[i] &&
                zoo_->datasets()[targets[i]].name == eval.target_name) {
              result.evaluations[i] = eval;
              done[i] = 1;
              ++result.resumed;
              break;
            }
          }
        }
        TG_LOG(Info) << "resumed " << result.resumed << "/" << targets.size()
                     << " targets from " << options.checkpoint_path;
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      TG_LOG(Warning) << "ignoring unreadable checkpoint "
                      << options.checkpoint_path << ": "
                      << loaded.status().ToString();
    }
  }

  // Heartbeat baseline: resumed targets count as done from the start.
  size_t processed = result.resumed;
  targets_total_gauge.Set(static_cast<double>(targets.size()));
  targets_done_gauge.Set(static_cast<double>(processed));
  targets_retried_gauge.Set(0.0);
  targets_degraded_gauge.Set(0.0);
  targets_failed_gauge.Set(0.0);
  obs::EmitEvent("sweep.begin",
                 std::to_string(targets.size()) + " targets, " +
                     std::to_string(result.resumed) + " resumed");

  // Serializes result/done mutation and checkpoint writes; the heavy
  // per-target work runs outside it.
  std::mutex mu;
  auto save_checkpoint_locked = [&] {
    if (options.checkpoint_path.empty()) return;
    SweepCheckpoint checkpoint;
    checkpoint.build_git_sha = GetBuildInfo().git_sha;
    checkpoint.fingerprint = fingerprint;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (done[i]) checkpoint.targets.push_back(result.evaluations[i]);
    }
    Status saved = SaveSweepCheckpoint(options.checkpoint_path, checkpoint);
    if (!saved.ok()) {
      // A failing checkpoint write degrades resumability, never results.
      checkpoint_write_failures.Increment();
      TG_LOG(Warning) << "checkpoint write failed: " << saved.ToString();
    }
  };

  auto run_target = [&](size_t i) {
    const std::string& target_name = zoo_->datasets()[targets[i]].name;
    obs::EmitEvent("sweep.target_begin", target_name);
    TargetEvaluation eval;
    std::string error;
    int retries = 0;
    bool degraded = false;
    bool ok = TryEvaluateTarget(config, targets[i], &eval, &error);
    if (!ok && options.degrade_on_failure) {
      ++retries;
      obs::EmitEvent("sweep.target_retry", target_name, error);
      // Back off briefly before the retry: transient faults (I/O pressure,
      // injected prob schedules) often clear with a pause. The delay is
      // deterministic under (config seed, target index) -- see util/backoff.
      BackoffPolicy retry_backoff;
      retry_backoff.initial_sec = 0.005;
      retry_backoff.max_sec = 0.05;
      retry_backoff.seed = config.seed ^ targets[i];
      Backoff(retry_backoff).SleepNext();
      // Degraded strategy: metadata-only features need no graph, no
      // embedding training, and no dataset representations -- the smallest
      // surface that still yields a ranking for every model.
      const PipelineConfig fallback = DegradedFallbackConfig(config);
      std::string retry_error;
      ok = TryEvaluateTarget(fallback, targets[i], &eval, &retry_error);
      if (ok) {
        degraded = true;
      } else {
        error += "; degraded retry: " + retry_error;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (retries > 0) {
      result.retried += 1;
      retries_counter.Increment();
    }
    if (ok) {
      eval.retries = retries;
      eval.degraded = degraded;
      result.evaluations[i] = std::move(eval);
      done[i] = 1;
      if (degraded) {
        result.degraded += 1;
        degraded_counter.Increment();
      }
      save_checkpoint_locked();
    } else {
      TargetEvaluation& slot = result.evaluations[i];
      slot.target_dataset = targets[i];
      slot.target_name = zoo_->datasets()[targets[i]].name;
      slot.failed = true;
      slot.retries = retries;
      slot.error = error;
      result.failed += 1;
      result.complete = false;
      result.errors.push_back(slot.target_name + ": " + error);
      failures_counter.Increment();
      TG_LOG(Warning) << "target " << slot.target_name
                      << " failed: " << error;
    }
    // Heartbeat refresh: processed counts every finished attempt (ok,
    // degraded, or failed), so done/total reaches 1.0 even on lossy sweeps.
    ++processed;
    targets_done_gauge.Set(static_cast<double>(processed));
    targets_retried_gauge.Set(static_cast<double>(result.retried));
    targets_degraded_gauge.Set(static_cast<double>(result.degraded));
    targets_failed_gauge.Set(static_cast<double>(result.failed));
    obs::EmitEvent("sweep.target_end", target_name,
                   ok ? (degraded ? "degraded" : "ok") : "failed");
  };

  std::vector<size_t> pending;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (!done[i]) pending.push_back(targets[i]);
  }
  PrefillSweep(zoo_, modality_, config, pending);

  try {
    ParallelFor(0, targets.size(), 1,
                [&](size_t begin, size_t end, size_t /*chunk*/) {
                  for (size_t i = begin; i < end; ++i) {
                    // A drain request (SIGTERM) stops new targets; the
                    // completed ones are already checkpointed.
                    if (SweepDrainRequested()) return;
                    if (!done[i]) run_target(i);
                  }
                });
  } catch (const std::exception& e) {
    // A dispatch-level fault (thrown before any per-target guard could
    // catch it) aborted the parallel region; ParallelFor has already
    // drained every worker, so finish the stragglers serially.
    TG_LOG(Warning) << "parallel sweep aborted (" << e.what()
                    << "); finishing remaining targets serially";
    for (size_t i = 0; i < targets.size(); ++i) {
      if (SweepDrainRequested()) break;
      if (!done[i] && !result.evaluations[i].failed) run_target(i);
    }
  }
  if (SweepDrainRequested()) {
    result.drained = true;
    for (size_t i = 0; i < targets.size(); ++i) {
      if (!done[i]) result.complete = false;
    }
    obs::EmitEvent("sweep.drained",
                   std::to_string(processed) + "/" +
                       std::to_string(targets.size()) + " targets done");
  }
  obs::EmitEvent("sweep.end", std::to_string(targets.size()) + " targets, " +
                                  std::to_string(result.retried) +
                                  " retried, " +
                                  std::to_string(result.degraded) +
                                  " degraded, " +
                                  std::to_string(result.failed) + " failed");
  return result;
}

}  // namespace tg::core
