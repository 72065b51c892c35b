#include "zoo/model_zoo.h"

#include <string>

#include "features/domain_similarity.h"
#include "features/task2vec.h"
#include "obs/metrics.h"
#include "transferability/hscore.h"
#include "transferability/leep.h"
#include "transferability/logme.h"
#include "transferability/nce.h"
#include "transferability/parc.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace tg::zoo {
namespace {

// One hit/miss counter pair per cache: a miss is one computed value, a hit
// one read served from the cache. A fill's check for keys already present
// counts as neither.
obs::Counter& CacheCounter(const char* cache, bool hit) {
  return obs::MetricsRegistry::Instance().GetCounter(
      std::string("zoo.") + cache + (hit ? ".hit" : ".miss"));
}

// Computes the keys missing from `cache`, each into its own slot, across
// the pool when `parallel` (else inline), and publishes them in key order;
// the first insert of a key wins. Returns how many it computed.
template <typename Key, typename Value, typename Compute>
size_t FillMissing(std::mutex& mu, std::unordered_map<Key, Value>& cache,
                   const std::vector<Key>& keys, bool parallel,
                   const Compute& compute) {
  std::vector<Key> missing;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const Key& key : keys) {
      if (!cache.contains(key)) missing.push_back(key);
    }
  }
  std::vector<Value> values(missing.size());
  const size_t grain = parallel ? 1 : missing.size();
  ParallelFor(0, missing.size(), grain, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) values[i] = compute(missing[i]);
  });
  std::lock_guard<std::mutex> lock(mu);
  for (size_t i = 0; i < missing.size(); ++i) {
    cache.emplace(missing[i], std::move(values[i]));
  }
  return missing.size();
}

// Reads `key`, running `fill` first on a miss.
template <typename Key, typename Value, typename Fill>
const Value& ReadOrFill(std::mutex& mu, std::unordered_map<Key, Value>& cache,
                        const Key& key, obs::Counter& hits, const Fill& fill) {
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it != cache.end()) {
      hits.Increment();
      return it->second;
    }
  }
  fill();
  std::lock_guard<std::mutex> lock(mu);
  return cache.at(key);
}

}  // namespace

ModelZoo::ModelZoo(const ModelZooConfig& config)
    : config_(config), catalog_(BuildCatalog(config.catalog)) {
  // ScoreKey packs the model and dataset indices into 24 bits each.
  TG_CHECK(catalog_.models.size() <= kIndexMask &&
           catalog_.datasets.size() <= kIndexMask);
  world_ = std::make_unique<SyntheticWorld>(catalog_, config.world);
  // Publish the world's pre-training accuracies into the model metadata.
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    catalog_.models[m].pretrain_accuracy = world_->PretrainAccuracy(m);
  }
  simulator_ = std::make_unique<FineTuneSimulator>(*world_, config.finetune);
  probe_ = std::make_unique<ProbeNetwork>(config.world.ambient_dim,
                                          config.probe);
}

std::vector<size_t> ModelZoo::DatasetsOfModality(Modality modality) const {
  std::vector<size_t> out;
  for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
    if (catalog_.datasets[d].modality == modality) out.push_back(d);
  }
  return out;
}

std::vector<size_t> ModelZoo::ModelsOfModality(Modality modality) const {
  std::vector<size_t> out;
  for (size_t m = 0; m < catalog_.models.size(); ++m) {
    if (catalog_.models[m].modality == modality) out.push_back(m);
  }
  return out;
}

std::vector<size_t> ModelZoo::PublicDatasets(Modality modality) const {
  std::vector<size_t> out;
  for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
    if (catalog_.datasets[d].modality == modality &&
        catalog_.datasets[d].is_public) {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<size_t> ModelZoo::EvaluationTargets(Modality modality) const {
  std::vector<size_t> out;
  for (size_t d = 0; d < catalog_.datasets.size(); ++d) {
    if (catalog_.datasets[d].modality == modality &&
        catalog_.datasets[d].is_evaluation_target) {
      out.push_back(d);
    }
  }
  return out;
}

double ModelZoo::FineTuneAccuracy(size_t model, size_t dataset,
                                  FineTuneMethod method) const {
  return simulator_->Accuracy(model, dataset, method);
}

double ModelZoo::PretrainAccuracy(size_t model) const {
  TG_CHECK_LT(model, catalog_.models.size());
  return catalog_.models[model].pretrain_accuracy;
}

const std::vector<double>& ModelZoo::DatasetEmbedding(
    size_t dataset, DatasetRepresentation repr) {
  static obs::Counter& hits = CacheCounter("dataset_embedding_cache", true);
  return ReadOrFill(cache_mu_, embeddings_[static_cast<size_t>(repr)],
                    dataset, hits,
                    [&] { FillDatasetEmbeddings({dataset}, repr); });
}

void ModelZoo::FillDatasetEmbeddings(const std::vector<size_t>& datasets,
                                     DatasetRepresentation repr) {
  static obs::Counter& misses =
      CacheCounter("dataset_embedding_cache", false);
  // Inline: each embedding holds ~2 MB of probe-network temporaries, and in
  // parallel every pool thread's malloc arena kept them (a 4-thread cold
  // rank peaked ~9 MiB higher) for no measurable wall-time gain.
  misses.Increment(FillMissing(
      cache_mu_, embeddings_[static_cast<size_t>(repr)], datasets,
      /*parallel=*/false,
      [&](size_t d) { return ComputeDatasetEmbedding(d, repr); }));
}

std::vector<double> ModelZoo::ComputeDatasetEmbedding(
    size_t dataset, DatasetRepresentation repr) {
  const DatasetSamples& samples = world_->Samples(dataset);
  if (repr == DatasetRepresentation::kDomainSimilarity) {
    return probe_->DatasetEmbedding(samples.ambient);
  }
  const Matrix probe_features = probe_->EmbedSamples(samples.ambient);
  Result<std::vector<double>> result =
      Task2VecEmbedding(probe_features, samples.labels, samples.num_classes);
  TG_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

double ModelZoo::DatasetSimilarityScore(size_t a, size_t b,
                                        DatasetRepresentation repr) {
  if (a == b) return 1.0;
  return DatasetSimilarity(DatasetEmbedding(a, repr),
                           DatasetEmbedding(b, repr));
}

double ModelZoo::Score(Estimator estimator, size_t model, size_t dataset) {
  static obs::Counter& hits = CacheCounter("score_cache", true);
  return ReadOrFill(cache_mu_, scores_, ScoreKey(estimator, model, dataset),
                    hits,
                    [&] { FillScores(estimator, {model}, {dataset}); });
}

void ModelZoo::FillScores(Estimator estimator,
                          const std::vector<size_t>& models,
                          const std::vector<size_t>& datasets) {
  static obs::Counter& misses = CacheCounter("score_cache", false);
  std::vector<uint64_t> keys;  // dataset-major pair order
  for (size_t d : datasets) {
    for (size_t m : models) keys.push_back(ScoreKey(estimator, m, d));
  }
  misses.Increment(FillMissing(
      cache_mu_, scores_, keys, /*parallel=*/true, [&](uint64_t key) {
        return ComputeScore(estimator, (key >> 24) & kIndexMask,
                            key & kIndexMask);
      }));
}

double ModelZoo::ComputeScore(Estimator estimator, size_t model,
                              size_t dataset) {
  const DatasetSamples& samples = world_->Samples(dataset);
  const Result<double> score = [&]() -> Result<double> {
    switch (estimator) {
      case Estimator::kLogMe:
        return LogMeScore(world_->ExtractFeatures(model, dataset),
                          samples.labels, samples.num_classes);
      case Estimator::kLeep:
        return LeepScore(world_->SourceProbabilities(model, dataset),
                         samples.labels, samples.num_classes);
      case Estimator::kNce:
        return NceScore(world_->SourceHardLabels(model, dataset),
                        samples.labels);
      case Estimator::kParc:
        return ParcScore(world_->ExtractFeatures(model, dataset),
                         samples.labels, samples.num_classes);
      case Estimator::kHScore:
        return HScore(world_->ExtractFeatures(model, dataset), samples.labels,
                      samples.num_classes);
    }
    return Status::InvalidArgument("unknown estimator");
  }();
  TG_CHECK_MSG(score.ok(), score.status().ToString().c_str());
  return score.value();
}

}  // namespace tg::zoo
