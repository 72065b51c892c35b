// Traced runs: per-layer numbers for each workload.
//
// Query workloads replay one query through the same public calls that
// Pipeline::EvaluateTarget makes, timing each call with the benchmark's own
// LayerClock, and refuse to report anything unless the replay reproduces
// EvaluateTarget's predictions bit for bit. The sweep workload turns on the
// program's metrics registry around one sweep and reads back the counters,
// gauges and stage histograms it already exports. Layer names follow the
// src/ modules: zoo, transferability, features, core, embedding, ml, util.
#include <cmath>
#include <set>

#include "core/feature_table.h"
#include "core/graph_builder.h"
#include "embedding/random_walk.h"
#include "embedding/skipgram.h"
#include "ml/gbdt.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "transferability/logme.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using tg::Matrix;
using tg::core::BuiltGraph;
using tg::core::Pipeline;
using tg::core::PipelineConfig;
using tg::core::TargetEvaluation;
using tg::zoo::Modality;
using tg::zoo::ModelZoo;

double Ratio(double num, double den, double if_empty) {
  return den > 0.0 ? num / den : if_empty;
}

// The (model, dataset) pairs whose LogME scores the graph builder reads for
// one leave-one-out target: every model on every other public dataset.
std::vector<std::pair<size_t, size_t>> LogMePairs(const ModelZoo& zoo,
                                                  size_t target) {
  std::vector<std::pair<size_t, size_t>> pairs;
  const std::vector<size_t> models = zoo.ModelsOfModality(Modality::kImage);
  for (size_t d : zoo.PublicDatasets(Modality::kImage)) {
    if (d == target) continue;
    for (size_t m : models) pairs.emplace_back(m, d);
  }
  return pairs;
}

// Times the two halves of a LogME miss -- SyntheticWorld::ExtractFeatures and
// LogMeScore -- on the given pairs, outside any query, and checks every
// score against the value the zoo cached during the workload.
void TimeLogMeSplit(ModelZoo* scored_zoo, ModelZoo* fresh_zoo,
                    const std::vector<std::pair<size_t, size_t>>& pairs,
                    LayerMetrics* layers, std::vector<std::string>* failures) {
  double extract_s = 0.0;
  double logme_s = 0.0;
  size_t mismatches = 0;
  for (const auto& [model, dataset] : pairs) {
    const tg::zoo::DatasetSamples& samples =
        fresh_zoo->world().Samples(dataset);
    const double t0 = NowSeconds();
    const Matrix features = fresh_zoo->world().ExtractFeatures(model, dataset);
    const double t1 = NowSeconds();
    tg::Result<double> score =
        tg::LogMeScore(features, samples.labels, samples.num_classes);
    logme_s += NowSeconds() - t1;
    extract_s += t1 - t0;
    if (!score.ok() || score.value() != scored_zoo->LogMe(model, dataset)) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    failures->push_back(std::to_string(mismatches) +
                        " LogME scores differ from the workload's cache");
  }
  (*layers)["zoo.world.extract_s"] = extract_s;
  (*layers)["transferability.logme_s"] = logme_s;
}

struct Replay {
  std::vector<double> predicted;
  LayerClock clock;
  double wall_s = 0.0;
  size_t graph_nodes = 0;
  size_t graph_edges = 0;
  size_t walk_tokens = 0;
  size_t rows = 0;
  size_t features = 0;
  size_t trees = 0;
};

// Replays EvaluateTarget(config, target) for the default strategy
// (TG:XGB,N2V,all, full history) call by call. With `pipeline` set, node
// embeddings come from Pipeline::EmbeddingsFor (its cache) instead of
// walks + skip-gram, as on a warm pipeline.
Replay ReplayQuery(ModelZoo* zoo, Pipeline* pipeline, size_t target) {
  Replay replay;
  LayerClock& clock = replay.clock;
  const double start = NowSeconds();
  PipelineConfig cfg = DefaultPipelineConfig();
  cfg.graph.exclude_target = target;
  const std::vector<size_t> datasets = zoo->DatasetsOfModality(Modality::kImage);
  const std::vector<size_t> models = zoo->ModelsOfModality(Modality::kImage);

  // zoo + features + transferability: fill the caches the graph reads.
  {
    LayerClock::Span span(&clock, "zoo.world.samples");
    for (size_t d : datasets) zoo->world().Samples(d);
  }
  {
    LayerClock::Span span(&clock, "features.dataset_embedding");
    for (size_t d : datasets) zoo->DatasetEmbedding(d, cfg.graph.representation);
  }
  {
    LayerClock::Span span(&clock, "zoo.logme");
    for (const auto& [m, d] : LogMePairs(*zoo, target)) zoo->LogMe(m, d);
  }

  // core: the leave-one-out graph (every score is a cache hit by now).
  BuiltGraph built;
  {
    LayerClock::Span span(&clock, "core.graph_builder");
    built = tg::core::BuildModelZooGraph(zoo, Modality::kImage, cfg.graph);
  }
  replay.graph_nodes = built.graph.num_nodes();
  replay.graph_edges = built.graph.num_undirected_edges();

  // embedding: Node2VecEmbed's steps, or the pipeline's cached matrix.
  Matrix trained;
  const Matrix* embeddings = &trained;
  if (pipeline != nullptr) {
    LayerClock::Span span(&clock, "core.pipeline.embeddings");
    embeddings = &pipeline->EmbeddingsFor(cfg, built);
  } else {
    tg::Rng rng(cfg.seed);
    tg::Node2VecConfig n2v = cfg.node2vec;
    n2v.walk.extended =
        cfg.strategy.learner == tg::core::GraphLearner::kNode2VecPlus;
    std::vector<std::vector<tg::NodeId>> walks;
    {
      LayerClock::Span span(&clock, "embedding.walk");
      tg::RandomWalkGenerator walker(built.graph, n2v.walk);
      walks = walker.GenerateAll(&rng);
    }
    for (const auto& walk : walks) replay.walk_tokens += walk.size();
    LayerClock::Span span(&clock, "embedding.skipgram");
    tg::SkipGramTrainer trainer(built.graph.num_nodes(), n2v.skipgram);
    trainer.Train(walks, &rng);
    trained = trainer.embeddings();
  }

  // core: the supervised table over every other public dataset's history.
  tg::core::FeatureAssembler assembler(zoo, Modality::kImage,
                                       cfg.strategy.features,
                                       cfg.graph.representation, &built,
                                       embeddings);
  std::vector<std::pair<size_t, size_t>> train_pairs;
  for (size_t d : zoo->PublicDatasets(Modality::kImage)) {
    if (d == target) continue;
    for (size_t m : models) train_pairs.emplace_back(m, d);
  }
  tg::ml::TabularDataset train;
  {
    LayerClock::Span span(&clock, "core.feature_table");
    train = assembler.BuildTable(train_pairs, cfg.graph.history_method);
  }
  replay.rows = train.num_rows();
  replay.features = train.num_features();

  // ml: fit, then score every model on the target.
  std::unique_ptr<tg::ml::Regressor> predictor =
      tg::core::MakePredictor(cfg.strategy.predictor, cfg.predictor);
  {
    LayerClock::Span span(&clock, "ml.gbdt_fit");
    if (!predictor->Fit(train).ok()) return replay;
  }
  if (const auto* gbdt = dynamic_cast<const tg::ml::Gbdt*>(predictor.get())) {
    replay.trees = gbdt->num_trees();
  }
  std::vector<std::vector<double>> rows;
  {
    LayerClock::Span span(&clock, "core.feature_table");
    for (size_t m : models) rows.push_back(assembler.Row(m, target));
  }
  {
    LayerClock::Span span(&clock, "ml.predict");
    for (const std::vector<double>& row : rows) {
      replay.predicted.push_back(predictor->Predict(row));
    }
  }
  replay.wall_s = NowSeconds() - start;
  return replay;
}

// Shared per-layer report of one replayed query against its untraced
// reference evaluation.
LayerMetrics QueryLayers(const Replay& replay, double reference_s,
                         double replay_busy_s) {
  LayerMetrics layers;
  const LayerClock& c = replay.clock;
  layers["zoo.world.samples_s"] = c.Get("zoo.world.samples");
  layers["features.dataset_embedding_s"] = c.Get("features.dataset_embedding");
  layers["core.graph_builder_s"] = c.Get("core.graph_builder");
  layers["core.graph_builder.nodes"] = static_cast<double>(replay.graph_nodes);
  layers["core.graph_builder.edges"] = static_cast<double>(replay.graph_edges);
  layers["embedding.walk_s"] = c.Get("embedding.walk");
  layers["embedding.walk_tokens"] = static_cast<double>(replay.walk_tokens);
  layers["embedding.skipgram_s"] = c.Get("embedding.skipgram");
  layers["core.feature_table_s"] = c.Get("core.feature_table");
  layers["core.feature_table.cells"] =
      static_cast<double>(replay.rows * replay.features);
  layers["ml.gbdt_fit_s"] = c.Get("ml.gbdt_fit");
  layers["ml.gbdt.rows"] = static_cast<double>(replay.rows);
  layers["ml.gbdt.features"] = static_cast<double>(replay.features);
  layers["ml.gbdt.trees"] = static_cast<double>(replay.trees);
  layers["ml.predict_s"] = c.Get("ml.predict");
  layers["core.pipeline.target_sum_s"] = reference_s;
  layers["core.pipeline.target_max_s"] = reference_s;
  layers["util.thread_pool.utilization"] = Ratio(
      replay_busy_s, replay.wall_s * static_cast<double>(tg::ThreadCount()),
      0.0);
  layers["trace.coverage_ratio"] = Ratio(c.Total(), reference_s, 0.0);
  layers["trace.overhead_ratio"] = Ratio(replay.wall_s, reference_s, 0.0);
  return layers;
}

using Counters = std::map<std::string, uint64_t>;

Counters ReadCounters() {
  return tg::obs::MetricsRegistry::Instance().Snapshot().counters;
}

// Cache metrics from the program's counters: `after` minus `before`.
void AddCacheLayers(const Counters& after, const Counters& before,
                    size_t distinct_pairs, LayerMetrics* layers) {
  auto delta = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  const double hit = delta("zoo.score_cache.hit");
  const double miss = delta("zoo.score_cache.miss");
  const double embedding_hit = delta("pipeline.embedding_cache.hit");
  const double embedding_miss = delta("pipeline.embedding_cache.miss");
  (*layers)["zoo.world.extract_calls"] = miss;
  (*layers)["transferability.logme_calls"] = miss;
  (*layers)["features.dataset_embedding_calls"] =
      delta("zoo.dataset_embedding_cache.miss");
  (*layers)["zoo.score_cache.hit_ratio"] = Ratio(hit, hit + miss, 0.0);
  // No misses means no wasted work.
  (*layers)["zoo.score_cache.useful_ratio"] =
      Ratio(static_cast<double>(distinct_pairs), miss, 1.0);
  (*layers)["core.pipeline.embedding_cache.hit_ratio"] =
      Ratio(embedding_hit, embedding_hit + embedding_miss, 0.0);
}

// Mean Pearson of predicted vs. true fine-tune accuracy (paper Eq. 1).
double MeanPearson(const std::vector<TargetEvaluation>& evaluations) {
  double sum = 0.0;
  for (const TargetEvaluation& eval : evaluations) sum += eval.pearson;
  return Ratio(sum, static_cast<double>(evaluations.size()), 0.0);
}

// One untraced EvaluateTarget, timed.
TargetEvaluation Reference(Pipeline* pipeline, size_t target, double* wall_s) {
  const double start = NowSeconds();
  TargetEvaluation eval =
      pipeline->EvaluateTarget(DefaultPipelineConfig(), target);
  *wall_s = NowSeconds() - start;
  return eval;
}

void CheckReplay(const TargetEvaluation& reference, const Replay& replay,
                 const Options& options, std::vector<std::string>* failures) {
  std::vector<double> predicted = replay.predicted;
  if (options.perturb && !predicted.empty()) {
    predicted[0] = std::nextafter(predicted[0], 1e300);
  }
  if (predicted != reference.predicted) {
    failures->push_back(reference.target_name +
                        ": replay differs from EvaluateTarget");
  }
}

// Utilization of the global pool over a replay: busy seconds (gauge, moves
// only with metrics on) over wall x threads.
double PoolBusySeconds() {
  return tg::obs::MetricsRegistry::Instance()
      .GetGauge("thread_pool.worker_busy_seconds")
      .value();
}

}  // namespace

LayerMetrics TraceQueryCold(const Options& options,
                            std::vector<std::string>* failures) {
  tg::SetThreadCount(kParallelThreads);
  size_t target = 0;
  double reference_s = 0.0;
  TargetEvaluation reference;
  Counters before, after;
  {
    ModelZoo zoo(ZooConfig(options));
    target = Rotation(zoo, options.seed).front();
    Pipeline pipeline(&zoo, Modality::kImage);
    before = ReadCounters();
    reference = Reference(&pipeline, target, &reference_s);
    after = ReadCounters();
  }

  ModelZoo zoo(ZooConfig(options));
  tg::obs::SetMetricsEnabled(true);
  const double busy_before = PoolBusySeconds();
  const Replay replay = ReplayQuery(&zoo, nullptr, target);
  const double busy_s = PoolBusySeconds() - busy_before;
  tg::obs::SetMetricsEnabled(false);
  CheckReplay(reference, replay, options, failures);
  if (!failures->empty()) return {};

  LayerMetrics layers = QueryLayers(replay, reference_s, busy_s);
  const std::vector<std::pair<size_t, size_t>> pairs = LogMePairs(zoo, target);
  AddCacheLayers(after, before, pairs.size(), &layers);
  layers["quality.mean_pearson"] = reference.pearson;
  {
    ModelZoo fresh(ZooConfig(options));
    TimeLogMeSplit(&zoo, &fresh, pairs, &layers, failures);
  }
  // The replay's single LogME span splits into world extraction + LogME;
  // the split is measured above on the same pairs.
  layers["zoo.logme_fill_s"] = replay.clock.Get("zoo.logme");
  return failures->empty() ? layers : LayerMetrics{};
}

LayerMetrics TraceQueryWarm(const Options& options,
                            std::vector<std::string>* failures) {
  // The same set-up as the untraced workload: a sweep fills the caches.
  tg::SetThreadCount(kParallelThreads);
  ModelZoo zoo(ZooConfig(options));
  Pipeline pipeline(&zoo, Modality::kImage);
  const std::vector<size_t> rotation = Rotation(zoo, options.seed);
  const tg::core::SweepResult warmup = pipeline.EvaluateAllTargetsResumable(
      DefaultPipelineConfig(), tg::core::SweepOptions{});
  const size_t target = rotation.front();
  double reference_s = 0.0;
  const Counters before = ReadCounters();
  const TargetEvaluation reference = Reference(&pipeline, target, &reference_s);
  const Counters after = ReadCounters();

  tg::obs::SetMetricsEnabled(true);
  const double busy_before = PoolBusySeconds();
  const Replay replay = ReplayQuery(&zoo, &pipeline, target);
  const double busy_s = PoolBusySeconds() - busy_before;
  tg::obs::SetMetricsEnabled(false);
  CheckReplay(reference, replay, options, failures);
  if (!failures->empty()) return {};

  LayerMetrics layers = QueryLayers(replay, reference_s, busy_s);
  AddCacheLayers(after, before, 0, &layers);
  layers["quality.mean_pearson"] = MeanPearson(warmup.evaluations);
  // A warm query extracts nothing and scores no LogME pair.
  layers["zoo.world.extract_s"] = 0.0;
  layers["transferability.logme_s"] = 0.0;
  layers["zoo.logme_fill_s"] = replay.clock.Get("zoo.logme");
  return layers;
}

LayerMetrics TraceSweep(const Options& options,
                        std::vector<std::string>* failures) {
  tg::SetThreadCount(kParallelThreads);
  tg::obs::MetricsRegistry& registry = tg::obs::MetricsRegistry::Instance();
  ModelZoo zoo(ZooConfig(options));
  Pipeline pipeline(&zoo, Modality::kImage);
  const size_t first_target = Rotation(zoo, options.seed).front();

  registry.ResetAll();
  tg::obs::SetMetricsEnabled(true);
  const double start = NowSeconds();
  const tg::core::SweepResult result = pipeline.EvaluateAllTargetsResumable(
      DefaultPipelineConfig(), tg::core::SweepOptions{});
  const double wall_s = NowSeconds() - start;
  tg::obs::SetMetricsEnabled(false);
  const tg::obs::MetricsSnapshot snap = registry.Snapshot();
  if (result.failed + result.degraded > 0) {
    failures->push_back("sweep had failed or degraded targets");
    return {};
  }

  auto stage = [&](const char* name) {
    auto it = snap.histograms.find(std::string("stage.") + name + ".seconds");
    return it == snap.histograms.end() ? tg::obs::HistogramStats{}
                                        : it->second;
  };
  auto gauge = [&](const char* name) {
    auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
  };

  // Distinct LogME pairs over all leave-one-out targets.
  std::set<std::pair<size_t, size_t>> distinct;
  for (size_t target : zoo.EvaluationTargets(Modality::kImage)) {
    for (const auto& pair : LogMePairs(zoo, target)) distinct.insert(pair);
  }
  const std::vector<std::pair<size_t, size_t>> pairs(distinct.begin(),
                                                     distinct.end());

  LayerMetrics layers;
  AddCacheLayers(snap.counters, Counters{}, pairs.size(), &layers);
  layers["quality.mean_pearson"] = MeanPearson(result.evaluations);

  layers["core.graph_builder_s"] = stage("graph_build").sum;
  layers["embedding.walk_s"] = stage("walk_corpus").sum;
  layers["embedding.skipgram_s"] = stage("skipgram_train").sum;
  layers["core.feature_table_s"] = stage("train_table").sum;
  layers["ml.gbdt_fit_s"] = stage("gbdt_fit").sum;
  layers["ml.predict_s"] = stage("target_scoring").sum;
  const tg::obs::HistogramStats targets = stage("evaluate_target");
  layers["core.pipeline.target_sum_s"] = targets.sum;
  layers["core.pipeline.target_max_s"] = targets.max;
  layers["util.thread_pool.utilization"] =
      Ratio(gauge("thread_pool.worker_busy_seconds"),
            wall_s * static_cast<double>(tg::ThreadCount()), 0.0);
  // Named program stages over the evaluate_target total; the sweep has no
  // untraced twin in this run, so its overhead is not measured.
  layers["trace.coverage_ratio"] = Ratio(
      layers["core.graph_builder_s"] + layers["embedding.walk_s"] +
          layers["embedding.skipgram_s"] + layers["core.feature_table_s"] +
          layers["ml.gbdt_fit_s"] + layers["ml.predict_s"],
      targets.sum, 0.0);
  layers["trace.overhead_ratio"] = 0.0;

  // Shapes of the first rotation target's query: a full replay on the
  // sweep's warm zoo, which must reproduce the sweep's result for it.
  const Replay shape = ReplayQuery(&zoo, nullptr, first_target);
  for (const TargetEvaluation& eval : result.evaluations) {
    if (eval.target_dataset == first_target) {
      CheckReplay(eval, shape, options, failures);
    }
  }
  layers["core.graph_builder.nodes"] = static_cast<double>(shape.graph_nodes);
  layers["core.graph_builder.edges"] = static_cast<double>(shape.graph_edges);
  layers["embedding.walk_tokens"] = static_cast<double>(shape.walk_tokens);
  layers["core.feature_table.cells"] =
      static_cast<double>(shape.rows * shape.features);
  layers["ml.gbdt.rows"] = static_cast<double>(shape.rows);
  layers["ml.gbdt.features"] = static_cast<double>(shape.features);
  layers["ml.gbdt.trees"] = static_cast<double>(shape.trees);

  // zoo / features / transferability work of the sweep's distinct items,
  // timed outside the sweep on a fresh zoo.
  ModelZoo fresh(ZooConfig(options));
  const std::vector<size_t> datasets =
      fresh.DatasetsOfModality(Modality::kImage);
  double t = NowSeconds();
  for (size_t d : datasets) fresh.world().Samples(d);
  layers["zoo.world.samples_s"] = NowSeconds() - t;
  t = NowSeconds();
  for (size_t d : datasets) {
    fresh.DatasetEmbedding(d, DefaultPipelineConfig().graph.representation);
  }
  layers["features.dataset_embedding_s"] = NowSeconds() - t;
  TimeLogMeSplit(&zoo, &fresh, pairs, &layers, failures);
  layers["zoo.logme_fill_s"] = 0.0;
  return failures->empty() ? layers : LayerMetrics{};
}

}  // namespace perfbench
