#include "core/sweep_checkpoint.h"

#include <cmath>
#include <limits>

#include "numeric/stats.h"
#include "util/atomic_file.h"
#include "util/build_info.h"
#include "util/fault.h"
#include "util/json_util.h"

namespace tg::core {
namespace {

constexpr int kSchemaVersion = 1;

// Doubles are emitted at %.17g so strtod round-trips them exactly --
// required for the resume bit-identity guarantee.
constexpr int kDoublePrecision = 17;

void AppendDoubleArray(const std::vector<double>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += JsonNumber(values[i], kDoublePrecision);
  }
  out->push_back(']');
}

Status BadCheckpoint(const std::string& path, const std::string& why) {
  return Status::InvalidArgument("checkpoint " + path + ": " + why);
}

// Reads a JSON array of finite numbers into `out` (scores must be finite;
// NaN would poison correlations silently).
bool ReadDoubleArray(const JsonValue* value, std::vector<double>* out) {
  if (value == nullptr || !value->is_array()) return false;
  out->clear();
  out->reserve(value->size());
  for (size_t i = 0; i < value->size(); ++i) {
    const JsonValue& element = value->at(i);
    if (!element.is_number()) return false;
    const double v = element.AsDouble();
    if (!std::isfinite(v)) return false;
    out->push_back(v);
  }
  return true;
}

// Reads a JSON number that is a whole number a T can hold. Checked before
// the cast: converting an out-of-range double to an integer is undefined.
template <typename T>
bool ReadWholeNumber(const JsonValue& value, T* out) {
  if (!value.is_number()) return false;
  const double v = value.AsDouble();
  // 2^digits is the first whole number past T's range, and exact as a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v >= 0.0 && v < limit && v == std::floor(v))) return false;
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

std::string SweepFingerprint(const PipelineConfig& config,
                             zoo::Modality modality) {
  const GraphBuildOptions& g = config.graph;
  std::string fp = ModalityName(modality);
  fp += "|f=";
  fp += FeatureSetName(config.strategy.features);
  fp += "|l=";
  fp += GraphLearnerName(config.strategy.learner);
  fp += "|p=";
  fp += PredictorKindName(config.strategy.predictor);
  fp += "|acc=" + std::to_string(g.accuracy_threshold);
  fp += "|tr=" + std::to_string(g.transferability_threshold);
  fp += "|ia=" + std::to_string(g.include_accuracy_edges);
  fp += "|it=" + std::to_string(g.include_transferability_edges);
  fp += "|hr=" + std::to_string(g.history_ratio);
  fp += "|hm=" + std::string(zoo::FineTuneMethodName(g.history_method));
  fp += "|rep=" + std::to_string(static_cast<int>(g.representation));
  fp += "|gseed=" + std::to_string(g.seed);
  fp += "|dim=" + std::to_string(config.node2vec.skipgram.dim);
  fp += "|pca=" + std::to_string(config.node_feature_pca_dim);
  fp += "|em=" + std::string(zoo::FineTuneMethodName(config.evaluation_method));
  fp += "|tl=" + std::to_string(config.use_transferability_labels);
  fp += "|seed=" + std::to_string(config.seed);
  return fp;
}

Status SaveSweepCheckpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint) {
  if (TG_FAULT_POINT("checkpoint.write")) {
    return fault::InjectedFault("checkpoint.write");
  }
  std::string json = "{\"schema\":" + std::to_string(kSchemaVersion);
  json += ",\"build_git_sha\":" + JsonQuote(checkpoint.build_git_sha);
  json += ",\"fingerprint\":" + JsonQuote(checkpoint.fingerprint);
  json += ",\"targets\":[";
  for (size_t i = 0; i < checkpoint.targets.size(); ++i) {
    if (i > 0) json.push_back(',');
    AppendTargetEvaluationJson(checkpoint.targets[i], &json);
  }
  json += "]}\n";
  // unique_temp: checkpoints and merged artifacts may be written by several
  // processes racing on one path (see distributed_sweep.h); a per-writer
  // temp name keeps every replace whole-file (last-writer-wins, no torn
  // reads).
  return WriteFileAtomic(path, json, /*unique_temp=*/true);
}

Result<SweepCheckpoint> LoadSweepCheckpoint(const std::string& path) {
  if (TG_FAULT_POINT("checkpoint.read")) {
    return fault::InjectedFault("checkpoint.read");
  }
  Result<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  Result<JsonValue> parsed = JsonValue::Parse(contents.value());
  if (!parsed.ok()) {
    return BadCheckpoint(path, parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  if (!root.is_object()) return BadCheckpoint(path, "root is not an object");
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_number() ||
      schema->AsDouble() != kSchemaVersion) {
    return BadCheckpoint(path, "unsupported schema version");
  }

  SweepCheckpoint checkpoint;
  if (const JsonValue* sha = root.Find("build_git_sha");
      sha != nullptr && sha->is_string()) {
    checkpoint.build_git_sha = sha->AsString();
  }
  if (const JsonValue* fp = root.Find("fingerprint");
      fp != nullptr && fp->is_string()) {
    checkpoint.fingerprint = fp->AsString();
  }
  const JsonValue* targets = root.Find("targets");
  if (targets == nullptr || !targets->is_array()) {
    return BadCheckpoint(path, "missing targets array");
  }
  for (size_t i = 0; i < targets->size(); ++i) {
    Result<TargetEvaluation> eval = ParseTargetEvaluationJson(targets->at(i));
    if (!eval.ok()) {
      return BadCheckpoint(path, eval.status().message());
    }
    checkpoint.targets.push_back(std::move(eval).value());
  }
  return checkpoint;
}

void AppendTargetEvaluationJson(const TargetEvaluation& eval,
                                std::string* out) {
  *out += "{\"target_dataset\":" + std::to_string(eval.target_dataset);
  *out += ",\"target_name\":" + JsonQuote(eval.target_name);
  *out += ",\"degraded\":" + std::string(eval.degraded ? "true" : "false");
  *out += ",\"retries\":" + std::to_string(eval.retries);
  *out += ",\"model_indices\":[";
  for (size_t m = 0; m < eval.model_indices.size(); ++m) {
    if (m > 0) out->push_back(',');
    *out += std::to_string(eval.model_indices[m]);
  }
  *out += "],\"predicted\":";
  AppendDoubleArray(eval.predicted, out);
  *out += ",\"actual\":";
  AppendDoubleArray(eval.actual, out);
  *out += "}";
}

Result<TargetEvaluation> ParseTargetEvaluationJson(const JsonValue& entry) {
  if (!entry.is_object()) {
    return Status::InvalidArgument("target not an object");
  }
  TargetEvaluation eval;
  const JsonValue* dataset = entry.Find("target_dataset");
  if (dataset == nullptr ||
      !ReadWholeNumber(*dataset, &eval.target_dataset)) {
    return Status::InvalidArgument("bad target_dataset");
  }
  const JsonValue* name = entry.Find("target_name");
  if (name == nullptr || !name->is_string() || name->AsString().empty()) {
    return Status::InvalidArgument("bad target_name");
  }
  eval.target_name = name->AsString();
  if (const JsonValue* degraded = entry.Find("degraded");
      degraded != nullptr) {
    if (!degraded->is_bool()) return Status::InvalidArgument("bad degraded");
    eval.degraded = degraded->AsBool();
  }
  if (const JsonValue* retries = entry.Find("retries");
      retries != nullptr && !ReadWholeNumber(*retries, &eval.retries)) {
    return Status::InvalidArgument("bad retries");
  }
  const JsonValue* indices = entry.Find("model_indices");
  if (indices == nullptr || !indices->is_array()) {
    return Status::InvalidArgument("bad model_indices");
  }
  eval.model_indices.resize(indices->size());
  for (size_t i = 0; i < indices->size(); ++i) {
    if (!ReadWholeNumber(indices->at(i), &eval.model_indices[i])) {
      return Status::InvalidArgument("bad model index");
    }
  }
  if (!ReadDoubleArray(entry.Find("predicted"), &eval.predicted) ||
      !ReadDoubleArray(entry.Find("actual"), &eval.actual)) {
    return Status::InvalidArgument("bad score arrays");
  }
  if (eval.predicted.size() != eval.model_indices.size() ||
      eval.actual.size() != eval.model_indices.size() ||
      eval.model_indices.empty()) {
    return Status::InvalidArgument("inconsistent per-target arrays");
  }
  // Correlations are derived state; recompute instead of trusting (or
  // round-tripping) the file.
  eval.pearson = PearsonCorrelation(eval.predicted, eval.actual);
  eval.spearman = SpearmanCorrelation(eval.predicted, eval.actual);
  return eval;
}

}  // namespace tg::core
