#include "core/feature_table.h"

#include <cmath>

#include "numeric/stats.h"
#include "util/check.h"

namespace tg::core {
namespace {

bool IncludesMetadata(FeatureSet set) {
  return set == FeatureSet::kMetadataOnly || set == FeatureSet::kAllWithLogMe ||
         set == FeatureSet::kAll;
}

bool IncludesDistance(FeatureSet set) {
  return set == FeatureSet::kAllWithLogMe || set == FeatureSet::kAll;
}

bool IncludesLogMe(FeatureSet set) { return set == FeatureSet::kAllWithLogMe; }

bool IncludesGraph(FeatureSet set) {
  return set == FeatureSet::kGraphOnly || set == FeatureSet::kAll;
}

}  // namespace

FeatureAssembler::FeatureAssembler(zoo::ModelZoo* zoo, zoo::Modality modality,
                                   FeatureSet feature_set,
                                   zoo::DatasetRepresentation representation,
                                   const BuiltGraph* built,
                                   const Matrix* embeddings)
    : zoo_(zoo),
      modality_(modality),
      feature_set_(feature_set),
      representation_(representation),
      built_(built),
      embeddings_(embeddings) {
  if (IncludesGraph(feature_set)) {
    TG_CHECK_MSG(built_ != nullptr && embeddings_ != nullptr,
                 "graph feature set requires a built graph and embeddings");
  }
}

double FeatureAssembler::NormalizedLogMe(size_t model, size_t dataset) {
  auto it = normalized_logme_.find(dataset);
  if (it == normalized_logme_.end()) {
    const std::vector<size_t> model_ids = zoo_->ModelsOfModality(modality_);
    zoo_->FillScores(zoo::Estimator::kLogMe, model_ids, {dataset});
    std::vector<double> scores;
    scores.reserve(model_ids.size());
    for (size_t m : model_ids) scores.push_back(zoo_->LogMe(m, dataset));
    const std::vector<double> normalized = MinMaxNormalize(scores);
    std::unordered_map<size_t, double> per_model;
    for (size_t i = 0; i < model_ids.size(); ++i) {
      per_model[model_ids[i]] = normalized[i];
    }
    it = normalized_logme_.emplace(dataset, std::move(per_model)).first;
  }
  auto found = it->second.find(model);
  TG_CHECK(found != it->second.end());
  return found->second;
}

namespace {

// Shared metadata block used for both zoo models and external models.
void AppendModelDatasetMetadata(const zoo::ModelInfo& m,
                                const zoo::DatasetInfo& d,
                                std::vector<double>* row) {
  for (int a = 0; a < zoo::kNumArchitectures; ++a) {
    row->push_back(static_cast<int>(m.architecture) == a ? 1.0 : 0.0);
  }
  row->push_back(std::log10(m.num_parameters_millions));
  row->push_back(std::log10(std::max(m.memory_mb, 1.0)));
  row->push_back(static_cast<double>(m.input_size) / 1000.0);
  row->push_back(m.pretrain_accuracy);
  row->push_back(
      std::log10(static_cast<double>(std::max<size_t>(d.num_samples, 1))));
  row->push_back(static_cast<double>(d.num_classes) / 100.0);
}

}  // namespace

std::vector<double> FeatureAssembler::Row(size_t model, size_t dataset) {
  const zoo::ModelInfo& m = zoo_->models()[model];
  const zoo::DatasetInfo& d = zoo_->datasets()[dataset];
  TG_CHECK(m.modality == modality_ && d.modality == modality_);

  std::vector<double> row;
  if (IncludesMetadata(feature_set_)) {
    AppendModelDatasetMetadata(m, d, &row);
  }
  if (IncludesDistance(feature_set_)) {
    // Similarity between the model's pre-training source and the dataset.
    row.push_back(zoo_->DatasetSimilarityScore(m.source_dataset, dataset,
                                               representation_));
  }
  if (IncludesLogMe(feature_set_)) {
    row.push_back(NormalizedLogMe(model, dataset));
  }
  if (IncludesGraph(feature_set_)) {
    auto m_it = built_->model_node.find(model);
    auto d_it = built_->dataset_node.find(dataset);
    TG_CHECK(m_it != built_->model_node.end());
    TG_CHECK(d_it != built_->dataset_node.end());
    for (size_t c = 0; c < embeddings_->cols(); ++c) {
      row.push_back((*embeddings_)(m_it->second, c));
    }
    for (size_t c = 0; c < embeddings_->cols(); ++c) {
      row.push_back((*embeddings_)(d_it->second, c));
    }
  }
  return row;
}

std::vector<double> FeatureAssembler::RowForExternalModel(
    const zoo::ModelInfo& info, const std::vector<double>& model_embedding,
    size_t dataset) {
  TG_CHECK_MSG(!IncludesLogMe(feature_set_),
               "external models cannot use the LogME feature set");
  const zoo::DatasetInfo& d = zoo_->datasets()[dataset];
  TG_CHECK(info.modality == modality_ && d.modality == modality_);

  std::vector<double> row;
  if (IncludesMetadata(feature_set_)) {
    AppendModelDatasetMetadata(info, d, &row);
  }
  if (IncludesDistance(feature_set_)) {
    row.push_back(zoo_->DatasetSimilarityScore(info.source_dataset, dataset,
                                               representation_));
  }
  if (IncludesGraph(feature_set_)) {
    TG_CHECK_EQ(model_embedding.size(), embeddings_->cols());
    for (double v : model_embedding) row.push_back(v);
    auto d_it = built_->dataset_node.find(dataset);
    TG_CHECK(d_it != built_->dataset_node.end());
    for (size_t c = 0; c < embeddings_->cols(); ++c) {
      row.push_back((*embeddings_)(d_it->second, c));
    }
  }
  return row;
}

std::vector<std::string> FeatureAssembler::FeatureNames() const {
  std::vector<std::string> names;
  if (IncludesMetadata(feature_set_)) {
    for (int a = 0; a < zoo::kNumArchitectures; ++a) {
      names.push_back(std::string("arch_") +
                      zoo::ArchitectureName(static_cast<zoo::Architecture>(a)));
    }
    names.push_back("log_params");
    names.push_back("log_memory");
    names.push_back("input_size");
    names.push_back("pretrain_accuracy");
    names.push_back("log_dataset_samples");
    names.push_back("dataset_classes");
  }
  if (IncludesDistance(feature_set_)) names.push_back("source_target_similarity");
  if (IncludesLogMe(feature_set_)) names.push_back("logme_normalized");
  if (IncludesGraph(feature_set_)) {
    const size_t dim = embeddings_ != nullptr ? embeddings_->cols() : 0;
    for (size_t c = 0; c < dim; ++c) {
      names.push_back("model_emb_" + std::to_string(c));
    }
    for (size_t c = 0; c < dim; ++c) {
      names.push_back("dataset_emb_" + std::to_string(c));
    }
  }
  return names;
}

ml::TabularDataset FeatureAssembler::BuildTable(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    zoo::FineTuneMethod method) {
  ml::TabularDataset table;
  table.feature_names = FeatureNames();
  TG_CHECK(!pairs.empty());
  table.x = Matrix(pairs.size(), table.feature_names.size());
  table.y.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [model, dataset] = pairs[i];
    table.x.SetRow(i, Row(model, dataset));
    table.y[i] = zoo_->FineTuneAccuracy(model, dataset, method);
  }
  return table;
}

}  // namespace tg::core
