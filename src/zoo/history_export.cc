#include "zoo/history_export.h"

#include "util/csv.h"
#include "util/string_util.h"

namespace tg::zoo {

Status ExportTrainingHistoryCsv(ModelZoo* zoo, Modality modality,
                                const std::string& path,
                                const HistoryExportOptions& options) {
  CsvWriter csv(path);
  if (!csv.ok()) return Status::Internal("cannot open for writing: " + path);

  std::vector<std::string> header = {"model", "architecture",
                                     "source_dataset", "dataset",
                                     "finetune_accuracy"};
  if (options.include_logme) header.push_back("logme");
  csv.WriteRow(header);

  if (options.include_logme) {
    zoo->FillScores(Estimator::kLogMe, zoo->ModelsOfModality(modality),
                    zoo->PublicDatasets(modality));
  }
  for (size_t d : zoo->PublicDatasets(modality)) {
    for (size_t m : zoo->ModelsOfModality(modality)) {
      const ModelInfo& model = zoo->models()[m];
      std::vector<std::string> row = {
          model.name, ArchitectureName(model.architecture),
          zoo->datasets()[model.source_dataset].name,
          zoo->datasets()[d].name,
          FormatDouble(zoo->FineTuneAccuracy(m, d, options.method), 6)};
      if (options.include_logme) {
        row.push_back(FormatDouble(zoo->LogMe(m, d), 6));
      }
      csv.WriteRow(row);
    }
  }
  return csv.Close();
}

}  // namespace tg::zoo
