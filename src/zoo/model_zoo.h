// ModelZoo: the top-level registry joining the catalog, the synthetic world,
// the fine-tune simulator, probe-network dataset representations, dataset
// similarity, and cached transferability scores. This is "stage 1" of the
// paper's Figure 5 pipeline: everything the graph construction and the
// prediction models consume is collected (and memoized) here.
#ifndef TG_ZOO_MODEL_ZOO_H_
#define TG_ZOO_MODEL_ZOO_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "features/probe_network.h"
#include "zoo/catalog.h"
#include "zoo/finetune_simulator.h"
#include "zoo/synthetic_world.h"
#include "zoo/types.h"

namespace tg::zoo {

enum class DatasetRepresentation { kDomainSimilarity, kTask2Vec };

// The transferability estimators whose scores the zoo tables per
// (model, dataset) pair.
enum class Estimator { kLogMe, kLeep, kNce, kParc, kHScore };

struct ModelZooConfig {
  CatalogOptions catalog;
  WorldConfig world;
  FineTuneConfig finetune;
  ProbeNetworkConfig probe;
};

class ModelZoo {
 public:
  explicit ModelZoo(const ModelZooConfig& config = {});

  ModelZoo(const ModelZoo&) = delete;
  ModelZoo& operator=(const ModelZoo&) = delete;

  // --- Catalog access ---
  const Catalog& catalog() const { return catalog_; }
  const std::vector<DatasetInfo>& datasets() const {
    return catalog_.datasets;
  }
  const std::vector<ModelInfo>& models() const { return catalog_.models; }
  size_t num_datasets() const { return catalog_.datasets.size(); }
  size_t num_models() const { return catalog_.models.size(); }

  std::vector<size_t> DatasetsOfModality(Modality modality) const;
  std::vector<size_t> ModelsOfModality(Modality modality) const;
  // Public datasets of the modality (graph + history participants).
  std::vector<size_t> PublicDatasets(Modality modality) const;
  // The evaluation targets of the modality (Table III rows with variance).
  std::vector<size_t> EvaluationTargets(Modality modality) const;

  // --- Ground truth & metadata ---
  double FineTuneAccuracy(
      size_t model, size_t dataset,
      FineTuneMethod method = FineTuneMethod::kFullFineTune) const;
  double PretrainAccuracy(size_t model) const;

  // --- Dataset representations & similarity ---
  // Memoized and thread-safe; every value is a pure function of its key. A
  // Fill* call computes the missing keys outside the lock (FillScores in one
  // ParallelFor) and publishes them in key order, first insert winning, so
  // the caches hold the same bits at any thread count (docs/threading.md).
  const std::vector<double>& DatasetEmbedding(size_t dataset,
                                              DatasetRepresentation repr);
  void FillDatasetEmbeddings(const std::vector<size_t>& datasets,
                             DatasetRepresentation repr);
  double DatasetSimilarityScore(size_t a, size_t b,
                                DatasetRepresentation repr);

  // --- Transferability scores: one table keyed by (estimator, pair) ---
  // Reads one score, computing it first on a miss.
  double Score(Estimator estimator, size_t model, size_t dataset);
  // Computes every missing score of `estimator` over models x datasets.
  void FillScores(Estimator estimator, const std::vector<size_t>& models,
                  const std::vector<size_t>& datasets);
  double LogMe(size_t model, size_t dataset) {
    return Score(Estimator::kLogMe, model, dataset);
  }

  SyntheticWorld& world() { return *world_; }
  const FineTuneSimulator& simulator() const { return *simulator_; }

 private:
  static constexpr uint64_t kIndexMask = (uint64_t{1} << 24) - 1;
  static uint64_t ScoreKey(Estimator estimator, size_t model,
                           size_t dataset) {
    return (static_cast<uint64_t>(estimator) << 48) | (model << 24) | dataset;
  }
  std::vector<double> ComputeDatasetEmbedding(size_t dataset,
                                              DatasetRepresentation repr);
  double ComputeScore(Estimator estimator, size_t model, size_t dataset);

  ModelZooConfig config_;
  Catalog catalog_;
  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<FineTuneSimulator> simulator_;
  std::unique_ptr<ProbeNetwork> probe_;

  // Guards every memoization map below. References into the maps stay valid
  // under concurrent insertion (unordered_map never moves elements).
  std::mutex cache_mu_;
  std::unordered_map<size_t, std::vector<double>> embeddings_[2];  // by repr
  std::unordered_map<uint64_t, double> scores_;  // keyed by ScoreKey
};

}  // namespace tg::zoo

#endif  // TG_ZOO_MODEL_ZOO_H_
