// Export of the collected per-pair training history (fine-tuning accuracy +
// transferability scores) as CSV, the tabular artifact external tooling or
// notebooks would consume.
#ifndef TG_ZOO_HISTORY_EXPORT_H_
#define TG_ZOO_HISTORY_EXPORT_H_

#include <string>

#include "util/status.h"
#include "zoo/model_zoo.h"

namespace tg::zoo {

struct HistoryExportOptions {
  FineTuneMethod method = FineTuneMethod::kFullFineTune;
  // Including LogME makes the export slower on a cold cache (one LogME run
  // per missing pair, filled in one parallel region).
  bool include_logme = true;
};

// Writes one row per (model, public dataset) pair of the modality:
//   model,architecture,source_dataset,dataset,finetune_accuracy[,logme]
Status ExportTrainingHistoryCsv(ModelZoo* zoo, Modality modality,
                                const std::string& path,
                                const HistoryExportOptions& options = {});

}  // namespace tg::zoo

#endif  // TG_ZOO_HISTORY_EXPORT_H_
