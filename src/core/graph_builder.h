// Construction of the model-zoo graph from collected features (paper §V-A,
// Table II heuristics):
//   * every dataset pair gets a D-D similarity edge;
//   * models connect to datasets through training-performance edges
//     (pre-training performance on the source dataset + fine-tuning history
//     on public datasets) kept when the per-dataset min-max-normalized
//     accuracy reaches the positive threshold;
//   * models connect to public datasets through transferability-score
//     (LogME) edges kept when the normalized score reaches the threshold;
//   * pairs below the negative threshold become labeled negative pairs for
//     the link-prediction objective.
// Leave-one-out: all M-D edges incident to the target dataset are dropped;
// D-D edges remain (paper §VII-A Evaluation).
#ifndef TG_CORE_GRAPH_BUILDER_H_
#define TG_CORE_GRAPH_BUILDER_H_

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "zoo/model_zoo.h"

namespace tg::core {

struct GraphBuildOptions {
  // Positive-edge thresholds on min-max-normalized scores (Table II: 0.5).
  double accuracy_threshold = 0.5;
  double transferability_threshold = 0.5;
  // Below this normalized accuracy a history pair becomes a labeled
  // negative (Table II: 0.5).
  double negative_threshold = 0.5;
  bool include_accuracy_edges = true;
  bool include_transferability_edges = true;
  // Leave-one-out target: drop every M-D edge incident to this dataset.
  std::optional<size_t> exclude_target;
  // Fraction of the fine-tuning history available (paper appendix B).
  double history_ratio = 1.0;
  // Which fine-tuning protocol produced the history edges (paper §VII-F).
  zoo::FineTuneMethod history_method = zoo::FineTuneMethod::kFullFineTune;
  zoo::DatasetRepresentation representation =
      zoo::DatasetRepresentation::kDomainSimilarity;
  uint64_t seed = 5;
};

struct BuiltGraph {
  Graph graph;
  // Labeled negatives (model node, dataset node) for link prediction.
  std::vector<std::pair<NodeId, NodeId>> negative_edges;
  std::unordered_map<size_t, NodeId> dataset_node;  // zoo index -> node
  std::unordered_map<size_t, NodeId> model_node;
};

// Fills every zoo cache the graph reads: the modality's dataset embeddings
// for `options.representation` and, with transferability edges on, LogME of
// every model on every public dataset except `options.exclude_target`, the
// latter in one parallel region over the missing pairs (inline when nested
// in a pool worker, as in a sweep target).
void FillGraphInputs(zoo::ModelZoo* zoo, zoo::Modality modality,
                     const GraphBuildOptions& options);

// Builds the graph for one modality, calling FillGraphInputs first. `zoo` is
// mutated only through its internal caches.
BuiltGraph BuildModelZooGraph(zoo::ModelZoo* zoo, zoo::Modality modality,
                              const GraphBuildOptions& options);

}  // namespace tg::core

#endif  // TG_CORE_GRAPH_BUILDER_H_
