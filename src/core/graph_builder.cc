#include "core/graph_builder.h"

#include <algorithm>

#include "numeric/stats.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace tg::core {

void FillGraphInputs(zoo::ModelZoo* zoo, zoo::Modality modality,
                     const GraphBuildOptions& options) {
  {
    TG_TRACE_SPAN("dataset_embeddings");
    zoo->FillDatasetEmbeddings(zoo->DatasetsOfModality(modality),
                               options.representation);
  }
  if (!options.include_transferability_edges) return;
  TG_TRACE_SPAN("score_fill");
  std::vector<size_t> datasets = zoo->PublicDatasets(modality);
  if (options.exclude_target.has_value()) {
    std::erase(datasets, *options.exclude_target);
  }
  zoo->FillScores(zoo::Estimator::kLogMe, zoo->ModelsOfModality(modality),
                  datasets);
}

BuiltGraph BuildModelZooGraph(zoo::ModelZoo* zoo, zoo::Modality modality,
                              const GraphBuildOptions& options) {
  TG_CHECK_GT(options.history_ratio, 0.0);
  TG_TRACE_SPAN("graph_build");
  FillGraphInputs(zoo, modality, options);
  BuiltGraph built;
  Rng rng(options.seed);

  const std::vector<size_t> dataset_ids = zoo->DatasetsOfModality(modality);
  const std::vector<size_t> model_ids = zoo->ModelsOfModality(modality);
  const std::vector<size_t> public_ids = zoo->PublicDatasets(modality);

  // --- Nodes ---
  for (size_t d : dataset_ids) {
    built.dataset_node[d] =
        built.graph.AddNode(NodeType::kDataset, zoo->datasets()[d].name);
  }
  for (size_t m : model_ids) {
    built.model_node[m] =
        built.graph.AddNode(NodeType::kModel, zoo->models()[m].name);
  }

  // --- D-D similarity edges: all pairs (kept under leave-one-out) ---
  {
    TG_TRACE_SPAN("dd_similarity");
    for (size_t i = 0; i < dataset_ids.size(); ++i) {
      for (size_t j = i + 1; j < dataset_ids.size(); ++j) {
        const double sim = zoo->DatasetSimilarityScore(
            dataset_ids[i], dataset_ids[j], options.representation);
        built.graph.AddUndirectedEdge(built.dataset_node[dataset_ids[i]],
                                      built.dataset_node[dataset_ids[j]],
                                      EdgeType::kDatasetDataset,
                                      std::max(sim, 1e-3));
      }
    }
  }

  const bool loo = options.exclude_target.has_value();
  auto excluded = [&](size_t dataset) {
    return loo && *options.exclude_target == dataset;
  };

  // --- M-D training-performance edges ---
  if (options.include_accuracy_edges) {
    // Pre-training performance: model <-> its source dataset.
    for (size_t m : model_ids) {
      const size_t source = zoo->models()[m].source_dataset;
      if (excluded(source)) continue;
      built.graph.AddUndirectedEdge(built.model_node[m],
                                    built.dataset_node[source],
                                    EdgeType::kModelDatasetAccuracy,
                                    zoo->PretrainAccuracy(m));
    }
    // Fine-tuning history on public datasets, per-dataset normalized.
    for (size_t d : public_ids) {
      if (excluded(d)) continue;
      std::vector<double> accuracies;
      accuracies.reserve(model_ids.size());
      for (size_t m : model_ids) {
        accuracies.push_back(
            zoo->FineTuneAccuracy(m, d, options.history_method));
      }
      const std::vector<double> normalized = MinMaxNormalize(accuracies);
      for (size_t i = 0; i < model_ids.size(); ++i) {
        // Appendix B: only a fraction of the history may be available.
        if (options.history_ratio < 1.0 &&
            !rng.NextBernoulli(options.history_ratio)) {
          continue;
        }
        const NodeId model_node = built.model_node[model_ids[i]];
        const NodeId dataset_node = built.dataset_node[d];
        if (normalized[i] >= options.accuracy_threshold) {
          built.graph.AddUndirectedEdge(model_node, dataset_node,
                                        EdgeType::kModelDatasetAccuracy,
                                        accuracies[i]);
        } else if (normalized[i] < options.negative_threshold) {
          built.negative_edges.emplace_back(model_node, dataset_node);
        }
      }
    }
  }

  // --- M-D transferability edges (LogME) on public datasets ---
  if (options.include_transferability_edges) {
    for (size_t d : public_ids) {
      if (excluded(d)) continue;
      std::vector<double> scores;
      scores.reserve(model_ids.size());
      for (size_t m : model_ids) scores.push_back(zoo->LogMe(m, d));
      const std::vector<double> normalized = MinMaxNormalize(scores);
      for (size_t i = 0; i < model_ids.size(); ++i) {
        if (normalized[i] < options.transferability_threshold) continue;
        // Floor keeps edge weights strictly positive even when the minimum
        // score survives a very low pruning threshold.
        built.graph.AddUndirectedEdge(
            built.model_node[model_ids[i]], built.dataset_node[d],
            EdgeType::kModelDatasetTransferability,
            std::max(normalized[i], 1e-3));
      }
    }
  }

  return built;
}

}  // namespace tg::core
