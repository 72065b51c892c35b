// tg_cli: command-line front end for the TransferGraph library.
//
// Subcommands:
//   catalog                         list datasets and models of the zoo
//   rank --target D [options]       rank models for a target dataset
//   sweep [options]                 evaluate every target (resumable via
//                                   --checkpoint FILE; --no-degrade turns
//                                   off the metadata-only failure fallback).
//                                   With --workdir DIR --worker-id K the
//                                   process joins a distributed sweep: N
//                                   such workers claim targets from DIR via
//                                   atomic-rename leases, steal leases idle
//                                   longer than --lease-sec (default 30),
//                                   and survive each other's kill -9.
//                                   SIGTERM/SIGINT drain gracefully: the
//                                   in-flight target finishes, the lease is
//                                   released, and the process exits 0.
//   sweep-merge --workdir DIR       validate every shard of a distributed
//                                   sweep (duplicates, missing, torn,
//                                   stale-build) and write --out (default
//                                   DIR/merged.json) bit-identical to a
//                                   serial sweep's final checkpoint
//   graph-stats [--modality M]      Table II-style graph statistics
//   export-graph --out FILE         write the constructed graph as TSV
//   export-history --out FILE       write the training history as CSV
//   backend                         print active + available kernel backends
//                                   and thread count (honors TG_ISA,
//                                   TG_THREADS)
//   profile [rank options]          rank (default --target 0) under the
//                                   sampling profiler and print the report
//                                   (implies --profile; honors --profile-out)
//
// Common options:
//   --modality image|text           (default image)
//   --learner n2v|n2v+|sage|gat|none  graph learner    (default n2v;
//                                   none needs --features metadata or
//                                   all+logme)
//   --predictor lr|rf|xgb|auto      prediction model   (default xgb)
//   --features metadata|all|graph   feature set        (default all)
//   --top K                         list length for rank (default 10)
//   --models N                      zoo size knob (default 185/163)
//   --log-level debug|info|warning|error   stderr verbosity (default warning)
//
// Observability (see docs/observability.md):
//   --trace FILE    write a Chrome trace-event JSON of the run (open in
//                   chrome://tracing or https://ui.perfetto.dev)
//   --metrics       after `rank`, re-evaluate the target once more (warm
//                   caches), print the per-stage timing table (cold vs warm)
//                   and the full metrics dump
//   --mem           count heap allocations per span (adds alloc columns to
//                   the --metrics stage table and alloc_bytes/allocs args
//                   to trace events); also enabled by TG_MEM_TRACK=1
//   --rss-sample MS sample process RSS / peak RSS / major faults every MS
//                   milliseconds on a background thread; with --trace the
//                   samples appear as Perfetto counter tracks
//   --profile[=HZ]  sample the run with the SIGPROF profiler (default rate
//                   ~97 Hz, or TG_PROFILE_HZ); prints the top-N symbol
//                   table and per-span sample counts, and writes a
//                   collapsed-stack file (flamegraph.pl / speedscope)
//   --profile-out FILE   collapsed-stack path (default tg_profile.collapsed)
//   --perf-counters per-stage hardware counters (cycles, instructions,
//                   cache + branch misses) via perf_event_open; prints the
//                   per-stage IPC / cache-miss table after the run, or the
//                   reason counters were unavailable; also TG_PERF_COUNTERS=1
//   --telemetry-port P   serve /metrics (Prometheus text), /statusz (JSON)
//                   and /healthz on 127.0.0.1:P for the whole run; P=0 (or
//                   the bare flag) picks an ephemeral port, announced on
//                   stderr; also TG_TELEMETRY_PORT=P. A failed bind degrades
//                   to "telemetry unavailable", never a crash.
//   TG_EVENT_LOG=F  route every log line, slow span close, and sweep
//                   heartbeat event to F as structured JSON lines
//                   (TG_EVENT_LOG_RATE / TG_EVENT_LOG_SPAN_MS tune shedding)
#include <cctype>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/baselines.h"
#include "core/distributed_sweep.h"
#include "core/graph_builder.h"
#include "core/pipeline.h"
#include "core/recommender.h"
#include "graph/graph_stats.h"
#include "graph/serialization.h"
#include "numeric/kernel_backend.h"
#include "obs/event_log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/resource_sampler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/json_util.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "zoo/history_export.h"
#include "zoo/model_zoo.h"

namespace tg {
namespace {

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> options;
  zoo::ModelZooConfig zoo;  // --models applied (validated by ParseArgs)

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }

  bool Flag(const std::string& key) const {
    auto it = options.find(key);
    return it != options.end() && it->second != "false" && it->second != "0";
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: tg_cli <catalog|rank|sweep|sweep-merge|graph-stats|"
               "export-graph|export-history|backend|profile> "
               "[--option value ...]\n"
               "  rank requires --target <dataset name | evaluation index>\n"
               "  sweep evaluates every target; --checkpoint FILE resumes an\n"
               "    interrupted sweep, --no-degrade disables the metadata-only\n"
               "    retry for failed targets (see docs/robustness.md)\n"
               "  sweep --workdir DIR --worker-id K [--lease-sec S] joins a\n"
               "    distributed sweep: workers claim targets via atomic-rename\n"
               "    leases and reclaim leases idle longer than S (default 30);\n"
               "    SIGTERM drains gracefully (finish in-flight, exit 0)\n"
               "  sweep-merge --workdir DIR [--out FILE] validates every shard\n"
               "    and writes the merged artifact (default DIR/merged.json),\n"
               "    bit-identical to a serial sweep checkpoint\n"
               "  export-* require --out <path>\n"
               "  observability: --trace FILE (Chrome trace JSON), "
               "--metrics (stage table + counters after rank),\n"
               "                 --mem (per-span allocation accounting), "
               "--rss-sample MS (background RSS sampler),\n"
               "                 --profile[=HZ] + --profile-out FILE "
               "(sampling profiler, collapsed-stack output),\n"
               "                 --perf-counters (per-stage IPC / cache-miss "
               "table via perf_event_open),\n"
               "                 --telemetry-port P (serve /metrics /statusz "
               "/healthz on 127.0.0.1:P; 0 = ephemeral),\n"
               "                 --log-level debug|info|warning|error\n"
               "  profile runs rank (default --target 0) under the profiler "
               "and prints the report\n");
  return 2;
}

int UsageError(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return Usage();
}

// The one parse for every numeric flag value. The whole string must be a
// number in [lo, hi]: integers take plain decimal digits only (no sign,
// exponent or trailing bytes), doubles must be finite. Unlike std::stoi /
// std::stod this never throws, so a malformed value is a usage error that
// names the flag, never an abort.
template <typename T>
Result<T> ParseNumberFlag(const std::string& flag, const std::string& text,
                          T lo, T hi) {
  constexpr bool kIntegral = std::is_integral_v<T>;
  bool parsed = false;
  T value{};
  if constexpr (kIntegral) {
    uint64_t u = 0;
    parsed = ParseUint64(text, &u) && u <= static_cast<uint64_t>(hi);
    value = static_cast<T>(u);
  } else {
    parsed = ParseDouble(text, &value) && std::isfinite(value);
  }
  if (!parsed || value < lo || value > hi) {
    const auto bound = [](T v) {
      char buf[32];
      if constexpr (kIntegral) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
      } else {
        std::snprintf(buf, sizeof(buf), "%g", v);
      }
      return std::string(buf);
    };
    return Status::InvalidArgument(
        "--" + flag + ": invalid value '" + text + "' (expected " +
        (kIntegral ? "an integer" : "a number") + " in [" + bound(lo) + ", " +
        bound(hi) + "])");
  }
  return value;
}

// SIGTERM/SIGINT request a graceful sweep drain instead of killing the
// process mid-write: the handler is one async-signal-safe atomic store, the
// sweep loops poll it between targets, and the process exits 0 with its
// checkpoint/leases consistent. A second signal falls back to the default
// disposition (the handler resets itself), so a stuck worker can still be
// interrupted the hard way.
void HandleDrainSignal(int /*signum*/) { core::RequestSweepDrain(); }

void InstallDrainHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleDrainSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;  // second signal kills for real
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

// Every --option any subcommand reads. Anything else is a usage error, so a
// misspelled flag never silently falls back to its default.
bool IsKnownOption(const std::string& key) {
  static const char* const kOptions[] = {
      "checkpoint", "features", "learner", "lease-sec", "log-level",
      "logme", "mem", "metrics", "modality", "models", "no-degrade", "out",
      "perf-counters", "predictor", "profile", "profile-out", "rss-sample",
      "target", "telemetry-port", "top", "trace", "workdir", "worker-id"};
  for (const char* option : kOptions) {
    if (key == option) return true;
  }
  return false;
}

// Options whose value is a path or a name: a bare `--workdir` would
// otherwise parse as "true" and be dropped, silently running another mode.
bool RequiresValue(const std::string& key) {
  return key == "checkpoint" || key == "out" || key == "workdir" ||
         key == "worker-id";
}

Result<CliArgs> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  CliArgs args;
  args.command = argv[1];
  for (int i = 2; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Status::InvalidArgument(std::string("expected --option, got ") +
                                     argv[i]);
    }
    std::string key = argv[i] + 2;
    std::string value = "true";
    bool valueless = false;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      // --option=value form (e.g. --profile=397).
      value = key.substr(eq + 1);
      key.resize(eq);
      i += 1;
    } else if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      // Boolean flags (e.g. --metrics) take no value: the next token is
      // either absent or another --option.
      valueless = true;
      i += 1;
    } else {
      value = argv[i + 1];
      i += 2;
    }
    if (!IsKnownOption(key)) {
      return Status::InvalidArgument("unknown option --" + key);
    }
    if (valueless && RequiresValue(key)) {
      return Status::InvalidArgument("--" + key + " requires a value");
    }
    args.options[key] = value;
  }
  const std::string models = args.Get("models", "");
  if (!models.empty()) {
    Result<int> count = ParseNumberFlag("models", models, 1, INT_MAX);
    if (!count.ok()) return count.status();
    args.zoo.catalog.num_image_models = count.value();
    args.zoo.catalog.num_text_models = count.value();
  }
  return args;
}

Result<zoo::Modality> ParseModality(const std::string& text) {
  if (text == "image") return zoo::Modality::kImage;
  if (text == "text") return zoo::Modality::kText;
  return Status::InvalidArgument("unknown modality: " + text);
}

Result<core::GraphLearner> ParseLearner(const std::string& text) {
  if (text == "n2v") return core::GraphLearner::kNode2Vec;
  if (text == "n2v+") return core::GraphLearner::kNode2VecPlus;
  if (text == "sage") return core::GraphLearner::kGraphSage;
  if (text == "gat") return core::GraphLearner::kGat;
  if (text == "none") return core::GraphLearner::kNone;
  return Status::InvalidArgument("unknown learner: " + text);
}

Result<core::PredictorKind> ParsePredictor(const std::string& text) {
  if (text == "lr") return core::PredictorKind::kLinearRegression;
  if (text == "rf") return core::PredictorKind::kRandomForest;
  if (text == "xgb") return core::PredictorKind::kXgboost;
  if (text == "auto") return core::PredictorKind::kAuto;
  return Status::InvalidArgument("unknown predictor: " + text);
}

Result<core::FeatureSet> ParseFeatures(const std::string& text) {
  if (text == "metadata") return core::FeatureSet::kMetadataOnly;
  if (text == "all") return core::FeatureSet::kAll;
  if (text == "graph") return core::FeatureSet::kGraphOnly;
  if (text == "all+logme") return core::FeatureSet::kAllWithLogMe;
  return Status::InvalidArgument("unknown feature set: " + text);
}

Result<LogLevel> ParseLogLevel(const std::string& text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warning") return LogLevel::kWarning;
  if (text == "error") return LogLevel::kError;
  return Status::InvalidArgument("unknown log level: " + text);
}

int RunCatalog(const CliArgs& args) {
  zoo::ModelZoo zoo(args.zoo);
  TablePrinter datasets({"dataset", "modality", "samples", "classes",
                         "role"});
  for (const zoo::DatasetInfo& d : zoo.datasets()) {
    datasets.AddRow({d.name, zoo::ModalityName(d.modality),
                     std::to_string(d.num_samples),
                     std::to_string(d.num_classes),
                     d.is_evaluation_target ? "evaluation target"
                     : d.is_public          ? "public"
                                            : "source"});
  }
  datasets.Print();
  std::printf("\n%zu models (%zu image / %zu text)\n", zoo.num_models(),
              zoo.ModelsOfModality(zoo::Modality::kImage).size(),
              zoo.ModelsOfModality(zoo::Modality::kText).size());
  return 0;
}

// Prints the per-stage wall-clock table from the stage histograms: the cold
// column is the first evaluation, the warm column the cached re-evaluation
// (the delta between the two registry snapshots). This is the CLI view of
// the paper's Fig. 5 stage costs.
void PrintStageTable(const obs::MetricsSnapshot& cold,
                     const obs::MetricsSnapshot& warm) {
  constexpr const char* kPrefix = "stage.";
  constexpr const char* kSuffix = ".seconds";
  const bool mem = obs::MemoryTrackingEnabled();
  std::vector<std::string> header = {"stage", "cold calls", "cold s",
                                     "warm calls", "warm s"};
  if (mem) {
    header.push_back("cold alloc MB");
    header.push_back("warm alloc MB");
  }
  TablePrinter table(header);
  for (const auto& [name, total] : warm.histograms) {
    if (!StartsWith(name, kPrefix) || !EndsWith(name, kSuffix)) continue;
    const size_t body = name.size() - std::strlen(kPrefix) -
                        std::strlen(kSuffix);
    const std::string stage = name.substr(std::strlen(kPrefix), body);
    obs::HistogramStats first;  // zero when the stage only ran warm
    auto it = cold.histograms.find(name);
    if (it != cold.histograms.end()) first = it->second;
    std::vector<std::string> row = {stage, std::to_string(first.count),
                                    FormatDouble(first.sum, 4),
                                    std::to_string(total.count - first.count),
                                    FormatDouble(total.sum - first.sum, 4)};
    if (mem) {
      // The alloc histograms share the stage name with a different suffix;
      // the same snapshot-delta logic yields cold vs warm bytes.
      const std::string alloc_name = std::string(kPrefix) + stage +
                                     ".alloc_bytes";
      obs::HistogramStats alloc_cold;
      obs::HistogramStats alloc_total;
      if (auto ac = cold.histograms.find(alloc_name);
          ac != cold.histograms.end()) {
        alloc_cold = ac->second;
      }
      if (auto aw = warm.histograms.find(alloc_name);
          aw != warm.histograms.end()) {
        alloc_total = aw->second;
      }
      row.push_back(FormatDouble(alloc_cold.sum / 1048576.0, 1));
      row.push_back(FormatDouble((alloc_total.sum - alloc_cold.sum) /
                                     1048576.0,
                                 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

// The one parse of the strategy flags, shared by `rank`, `sweep`, the
// distributed worker branch and `sweep-merge` -- the merger must resolve
// the exact same PipelineConfig (and hence SweepFingerprint) as the workers
// whose shards it validates. Graph features need a graph learner, so
// `--learner none` with `all` or `graph` features is rejected here rather
// than aborting mid-pipeline.
Result<core::PipelineConfig> StrategyConfigFrom(const CliArgs& args) {
  const std::string learner_name = args.Get("learner", "n2v");
  const std::string features_name = args.Get("features", "all");
  Result<core::GraphLearner> learner = ParseLearner(learner_name);
  Result<core::PredictorKind> predictor =
      ParsePredictor(args.Get("predictor", "xgb"));
  Result<core::FeatureSet> features = ParseFeatures(features_name);
  if (!learner.ok()) return learner.status();
  if (!predictor.ok()) return predictor.status();
  if (!features.ok()) return features.status();
  if (learner.value() == core::GraphLearner::kNone &&
      (features.value() == core::FeatureSet::kAll ||
       features.value() == core::FeatureSet::kGraphOnly)) {
    return Status::InvalidArgument(
        "--learner " + learner_name + " cannot build --features " +
        features_name + " (graph features need a graph learner)");
  }
  core::PipelineConfig config;
  config.strategy.learner = learner.value();
  config.strategy.predictor = predictor.value();
  config.strategy.features = features.value();
  return config;
}

int RunRank(const CliArgs& args) {
  const std::string target_name = args.Get("target", "");
  if (target_name.empty() || target_name == "true") return Usage();

  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  Result<core::PipelineConfig> parsed_config = StrategyConfigFrom(args);
  if (!parsed_config.ok()) return UsageError(parsed_config.status());
  const core::PipelineConfig& config = parsed_config.value();
  Result<size_t> top =
      ParseNumberFlag("top", args.Get("top", "10"), size_t{1}, SIZE_MAX);
  if (!top.ok()) return UsageError(top.status());

  zoo::ModelZoo zoo(args.zoo);
  size_t target = 0;
  bool found = false;
  const bool numeric = !target_name.empty() &&
                       std::isdigit(static_cast<unsigned char>(
                           target_name[0]));
  if (numeric) {
    // Numeric targets index the modality's evaluation-target roster (the
    // paper's Table III rows): `--modality image --target 0` = caltech101.
    Result<size_t> index =
        ParseNumberFlag("target", target_name, size_t{0}, SIZE_MAX);
    if (!index.ok()) return UsageError(index.status());
    const std::vector<size_t> eval_targets =
        zoo.EvaluationTargets(modality.value());
    if (index.value() < eval_targets.size()) {
      target = eval_targets[index.value()];
      found = true;
    }
  } else {
    for (size_t d = 0; d < zoo.num_datasets(); ++d) {
      if (zoo.datasets()[d].name == target_name &&
          zoo.datasets()[d].is_public) {
        target = d;
        found = true;
      }
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown %s target: %s\n",
                 numeric ? "evaluation-index" : "public dataset",
                 target_name.c_str());
    return 1;
  }

  core::Pipeline pipeline(&zoo, zoo.datasets()[target].modality);
  core::TargetEvaluation evaluation =
      pipeline.EvaluateTarget(config, target);
  std::printf("strategy %s on %s: pearson %.3f, top-5 accuracy %.3f\n\n",
              config.strategy.DisplayName().c_str(),
              zoo.datasets()[target].name.c_str(), evaluation.pearson,
              evaluation.TopKMeanAccuracy(5));

  TablePrinter table({"rank", "model", "predicted", "actual"});
  int rank = 1;
  for (const core::Recommendation& rec :
       core::TopModels(evaluation, zoo, top.value())) {
    table.AddRow({std::to_string(rank++), rec.model_name,
                  FormatDouble(rec.predicted_score, 3),
                  FormatDouble(zoo.FineTuneAccuracy(rec.model_index, target),
                               3)});
  }
  table.Print();

  if (args.Flag("metrics")) {
    // Second evaluation of the same target: the embedding and zoo score
    // caches are warm now, so the stage table contrasts cold vs warm costs
    // and the hit counters below prove the caches actually serve.
    const obs::MetricsSnapshot cold =
        obs::MetricsRegistry::Instance().Snapshot();
    const core::TargetEvaluation warm_eval =
        pipeline.EvaluateTarget(config, target);
    // The determinism contract: telemetry must never change results.
    TG_CHECK(warm_eval.predicted == evaluation.predicted);
    const obs::MetricsSnapshot warm =
        obs::MetricsRegistry::Instance().Snapshot();
    std::printf("\nper-stage timings (cold = first evaluation, warm = "
                "cached re-evaluation):\n");
    PrintStageTable(cold, warm);
    std::printf("\nmetrics:\n%s",
                obs::MetricsRegistry::Instance().RenderTable().c_str());
  }
  return 0;
}

// Distributed worker: claim/steal/evaluate/publish against a shared
// --workdir until the whole sweep is resolved or a drain is requested.
// Exercised by the distributed chaos gate in tools/run_checks.sh.
int RunSweepWorkerCli(const CliArgs& args, const core::PipelineConfig& config,
                      zoo::Modality modality) {
  core::DistributedSweepOptions options;
  options.workdir = args.Get("workdir", "");
  options.worker_id = args.Get("worker-id", "");
  Result<double> lease_sec =
      ParseNumberFlag("lease-sec", args.Get("lease-sec", "30"), 1e-3, 1e9);
  if (!lease_sec.ok()) return UsageError(lease_sec.status());
  options.lease_sec = lease_sec.value();
  options.degrade_on_failure = !args.Flag("no-degrade");
  if (options.worker_id.empty()) {
    std::fprintf(stderr, "sweep --workdir requires --worker-id\n");
    return Usage();
  }

  zoo::ModelZoo zoo(args.zoo);
  core::Pipeline pipeline(&zoo, modality);
  Result<core::WorkerReport> ran =
      core::RunSweepWorker(&pipeline, config, options);
  if (!ran.ok()) {
    std::fprintf(stderr, "%s\n", ran.status().ToString().c_str());
    return 1;
  }
  const core::WorkerReport& report = ran.value();
  std::printf("worker %s: sweep %s, %zu/%zu targets evaluated here, "
              "%zu claims, %zu steals, %zu lease expiries, %zu retried, "
              "%zu degraded, %zu failed, %zu tmp reclaimed%s\n",
              options.worker_id.c_str(),
              report.complete ? "complete" : "incomplete", report.evaluated,
              report.targets_total, report.claims, report.steals,
              report.lease_expiries, report.retried, report.degraded,
              report.failed, report.tmp_reclaimed,
              report.drained ? " (drained)" : "");
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "worker %s: %s\n", options.worker_id.c_str(),
                 error.c_str());
  }
  // A drain (SIGTERM/SIGINT) is a clean, orchestrated exit: the in-flight
  // target finished, the lease pool is consistent, and a restarted worker
  // resumes exactly where this one stopped.
  if (report.drained) return 0;
  if (!report.complete || report.failed > 0) return 1;
  return 0;
}

int RunSweepMerge(const CliArgs& args) {
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  Result<core::PipelineConfig> config = StrategyConfigFrom(args);
  if (!config.ok()) return UsageError(config.status());
  const std::string workdir = args.Get("workdir", "");
  if (workdir.empty()) {
    std::fprintf(stderr, "sweep-merge requires --workdir\n");
    return Usage();
  }
  std::string out = args.Get("out", "");
  if (out.empty()) out = workdir + "/merged.json";

  zoo::ModelZoo zoo(args.zoo);
  core::Pipeline pipeline(&zoo, modality.value());
  Result<core::MergeReport> merged =
      core::MergeSweepShards(&pipeline, config.value(), workdir, out);
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
    return 1;
  }
  const core::MergeReport& report = merged.value();
  if (!report.ok()) {
    std::fprintf(stderr, "sweep-merge: %zu/%zu shards unusable:\n",
                 report.problems.size(), report.targets_total);
    for (const std::string& problem : report.problems) {
      std::fprintf(stderr, "  %s\n", problem.c_str());
    }
    return 1;
  }
  std::printf("merged %zu shards -> %s\n", report.merged,
              report.artifact_path.c_str());
  return 0;
}

// Leave-one-out sweep over every evaluation target of the modality, with
// graceful degradation and optional --checkpoint resume. Exercised by the
// chaos gate in tools/run_checks.sh; see docs/robustness.md.
int RunSweep(const CliArgs& args) {
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  Result<core::PipelineConfig> parsed_config = StrategyConfigFrom(args);
  if (!parsed_config.ok()) return UsageError(parsed_config.status());
  const core::PipelineConfig& config = parsed_config.value();

  // A flag of the other sweep mode is a usage error, never silently dropped.
  const bool distributed = !args.Get("workdir", "").empty();
  if (distributed && args.options.count("checkpoint") > 0) {
    return UsageError(Status::InvalidArgument(
        "--checkpoint does not apply with --workdir (sweep-merge writes the "
        "merged checkpoint)"));
  }
  for (const char* flag : {"worker-id", "lease-sec"}) {
    if (!distributed && args.options.count(flag) > 0) {
      return UsageError(Status::InvalidArgument(std::string("--") + flag +
                                                " requires --workdir"));
    }
  }
  if (distributed) return RunSweepWorkerCli(args, config, modality.value());

  core::SweepOptions options;
  options.checkpoint_path = args.Get("checkpoint", "");
  options.degrade_on_failure = !args.Flag("no-degrade");

  zoo::ModelZoo zoo(args.zoo);
  core::Pipeline pipeline(&zoo, modality.value());
  const core::SweepResult result =
      pipeline.EvaluateAllTargetsResumable(config, options);

  TablePrinter table({"target", "pearson", "spearman", "top-5 acc", "note"});
  double pearson_sum = 0.0;
  size_t scored = 0;
  for (const core::TargetEvaluation& eval : result.evaluations) {
    if (eval.failed) {
      table.AddRow({eval.target_name, "-", "-", "-", "FAILED: " + eval.error});
      continue;
    }
    pearson_sum += eval.pearson;
    ++scored;
    table.AddRow({eval.target_name, FormatDouble(eval.pearson, 3),
                  FormatDouble(eval.spearman, 3),
                  FormatDouble(eval.TopKMeanAccuracy(5), 3),
                  eval.degraded ? "degraded" : ""});
  }
  table.Print();
  std::printf("\n%zu/%zu targets scored (mean pearson %.3f); "
              "%zu resumed, %zu retried, %zu degraded, %zu failed\n",
              scored, result.evaluations.size(),
              scored > 0 ? pearson_sum / static_cast<double>(scored) : 0.0,
              result.resumed, result.retried, result.degraded, result.failed);
  if (result.drained) {
    // SIGTERM/SIGINT drain: in-flight targets finished and were
    // checkpointed; the rest are left for a resumed run. Exit 0 so
    // orchestrators can tell a graceful drain from a failure.
    std::printf("sweep drained; resume with the same --checkpoint to "
                "finish\n");
    return 0;
  }
  if (!result.complete) {
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "target failed: %s\n", error.c_str());
    }
    return 1;
  }
  return 0;
}

int RunGraphStats(const CliArgs& args) {
  zoo::ModelZoo zoo(args.zoo);
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  core::BuiltGraph built = core::BuildModelZooGraph(
      &zoo, modality.value(), core::GraphBuildOptions{});
  std::printf("%s\n", ComputeGraphStats(built.graph).ToString().c_str());
  return 0;
}

int RunExportGraph(const CliArgs& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  zoo::ModelZoo zoo(args.zoo);
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  core::BuiltGraph built = core::BuildModelZooGraph(
      &zoo, modality.value(), core::GraphBuildOptions{});
  Status status = WriteGraphToFile(built.graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu nodes, %zu edges)\n", out.c_str(),
              built.graph.num_nodes(), built.graph.num_undirected_edges());
  return 0;
}

int RunExportHistory(const CliArgs& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  zoo::ModelZoo zoo(args.zoo);
  Result<zoo::Modality> modality = ParseModality(args.Get("modality",
                                                          "image"));
  if (!modality.ok()) return Usage();
  zoo::HistoryExportOptions options;
  options.include_logme = args.Get("logme", "true") != "false";
  Status status =
      zoo::ExportTrainingHistoryCsv(&zoo, modality.value(), out, options);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// Prints the resolved kernel backend and everything this binary+CPU could
// run, one fact per line so shell gates can grep it. Resolution happens on
// the ActiveBackendName() call, so TG_ISA errors (forcing an unavailable
// backend) surface here exactly as they would in a real run; likewise the
// ThreadCount() call makes a bad TG_THREADS fail here, not mid-pipeline.
int RunBackend(const CliArgs& args) {
  (void)args;
  std::printf("active: %s\n", kernels::ActiveBackendName());
  std::string joined;
  for (const std::string& name : kernels::AvailableBackendNames()) {
    if (!joined.empty()) joined += " ";
    joined += name;
  }
  std::printf("available: %s\n", joined.c_str());
  std::printf("threads: %zu\n", ThreadCount());
  return 0;
}

int Dispatch(const CliArgs& args) {
  if (args.command == "catalog") return RunCatalog(args);
  if (args.command == "backend") return RunBackend(args);
  if (args.command == "rank") return RunRank(args);
  if (args.command == "profile") {
    // Profile report subcommand: rank under the profiler (Run() started it
    // because of the command name) with a default target.
    CliArgs ranked = args;
    if (ranked.Get("target", "").empty()) ranked.options["target"] = "0";
    return RunRank(ranked);
  }
  if (args.command == "sweep") return RunSweep(args);
  if (args.command == "sweep-merge") return RunSweepMerge(args);
  if (args.command == "graph-stats") return RunGraphStats(args);
  if (args.command == "export-graph") return RunExportGraph(args);
  if (args.command == "export-history") return RunExportHistory(args);
  return Usage();
}

int Run(int argc, char** argv) {
  Result<CliArgs> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) return UsageError(parsed.status());
  const CliArgs& args = parsed.value();

  Result<LogLevel> level = ParseLogLevel(args.Get("log-level", "warning"));
  if (!level.ok()) return Usage();
  SetLogLevel(level.value());

  // Numeric observability flags are validated before anything starts, so a
  // malformed value exits with nothing to tear down.
  const std::string telemetry_port = args.Get("telemetry-port", "");
  Result<int> port = 0;  // bare --telemetry-port binds an ephemeral port
  if (!telemetry_port.empty() && telemetry_port != "true") {
    port = ParseNumberFlag("telemetry-port", telemetry_port, 0, 65535);
    if (!port.ok()) return UsageError(port.status());
  }
  const std::string profile_arg = args.Get("profile", "");
  Result<int> hz = 0;  // 0 = TG_PROFILE_HZ or the 97 Hz default
  if (!profile_arg.empty() && profile_arg != "true") {
    hz = ParseNumberFlag("profile", profile_arg, 1, 10000);
    if (!hz.ok()) return UsageError(hz.status());
  }
  const std::string rss_interval = args.Get("rss-sample", "");
  Result<int> rss_interval_ms = 0;  // 0 = no background RSS sampler
  if (!rss_interval.empty() && rss_interval != "true") {
    rss_interval_ms = ParseNumberFlag("rss-sample", rss_interval, 1, INT_MAX);
    if (!rss_interval_ms.ok()) return UsageError(rss_interval_ms.status());
  }

  const std::string trace_path = args.Get("trace", "");
  if (!trace_path.empty()) obs::SetTraceEnabled(true);
  if (args.Flag("metrics")) obs::SetMetricsEnabled(true);
  if (args.Flag("mem")) obs::SetMemoryTrackingEnabled(true);
  if (args.Flag("perf-counters")) obs::SetPerfCountersEnabled(true);
  obs::SetCurrentThreadName("main");

  // Graceful shutdown for long sweeps (serial or distributed): SIGTERM and
  // SIGINT drain instead of killing mid-write.
  if (args.command == "sweep") InstallDrainHandlers();

  // Structured event log (TG_EVENT_LOG) and telemetry plane
  // (--telemetry-port / TG_TELEMETRY_PORT). Both degrade to a stderr
  // warning, never a failed run.
  obs::MaybeStartEventLogFromEnv();
  bool telemetry_started = false;
  if (!telemetry_port.empty()) {
    // Port 0 (also the bare flag) binds ephemeral; the announcement below
    // carries the resolved port.
    Status started = obs::StartTelemetry(port.value());
    if (started.ok()) {
      telemetry_started = true;
      std::fprintf(stderr, "telemetry: listening on 127.0.0.1:%d\n",
                   obs::TelemetryPort());
    } else {
      std::fprintf(stderr, "telemetry unavailable: %s\n",
                   started.ToString().c_str());
    }
  } else {
    telemetry_started = obs::MaybeStartTelemetryFromEnv();
  }

  // --profile[=HZ], or the `profile` subcommand (which implies it).
  const bool profiling = !profile_arg.empty() || args.command == "profile";
  if (profiling) {
    Status started = obs::StartProfiler(hz.value());
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
  }

  if (rss_interval_ms.value() > 0) {
    obs::ResourceSamplerOptions sampler_options;
    sampler_options.interval_ms = rss_interval_ms.value();
    obs::ResourceSampler::Instance().Start(sampler_options);
  }

  const int code = Dispatch(args);

  if (profiling) {
    (void)obs::StopProfiler();  // drains every thread's sample buffer
    const uint64_t samples = obs::ProfilerSampleCount();
    const uint64_t dropped = obs::ProfilerDroppedSampleCount();
    const std::string collapsed_path =
        args.Get("profile-out", "tg_profile.collapsed");
    Status written = obs::WriteCollapsedStacks(collapsed_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("\nprofiler: %llu samples at %d Hz (%llu dropped), "
                "collapsed stacks in %s\n",
                static_cast<unsigned long long>(samples), obs::ProfilerHz(),
                static_cast<unsigned long long>(dropped),
                collapsed_path.c_str());
    const std::string report = obs::ProfileReportTable(20);
    if (!report.empty()) {
      std::printf("\nhottest symbols (self = leaf frame, total = anywhere "
                  "in stack):\n%s",
                  report.c_str());
    }
    const std::map<std::string, uint64_t> span_samples =
        obs::SpanProfileSampleCounts();
    if (!span_samples.empty()) {
      TablePrinter spans({"span", "samples"});
      for (const auto& [span, count] : span_samples) {
        spans.AddRow({span, std::to_string(count)});
      }
      std::printf("\nsamples by innermost open span:\n%s",
                  spans.Render().c_str());
    }
  }

  if (obs::PerfCountersEnabled()) {
    if (obs::PerfCountersAvailable()) {
      const std::string counter_table = obs::StagePerfTable();
      if (!counter_table.empty()) {
        std::printf("\nper-stage hardware counters:\n%s",
                    counter_table.c_str());
      }
    } else {
      std::printf("\nperf counters unavailable: %s\n",
                  obs::PerfCountersUnavailableReason().c_str());
    }
  }

  if (obs::ResourceSampler::Instance().running()) {
    obs::ResourceSampler::Instance().Stop();
    const std::vector<obs::ResourceSample> samples =
        obs::ResourceSampler::Instance().Samples();
    if (!samples.empty()) {
      const obs::ResourceUsage& last = samples.back().usage;
      std::printf("\nresource sampler: %zu samples, final RSS %.1f MB, "
                  "peak RSS %.1f MB, major faults %llu\n",
                  samples.size(),
                  static_cast<double>(last.rss_bytes) / 1048576.0,
                  static_cast<double>(last.peak_rss_bytes) / 1048576.0,
                  static_cast<unsigned long long>(last.major_faults));
    }
  }

  if (!trace_path.empty()) {
    Status written = obs::WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return code != 0 ? code : 1;
    }
    // Self-check: the exporter hand-writes JSON, so lint what landed on
    // disk before telling anyone to load it into Perfetto.
    Status valid = JsonValidate(obs::ChromeTraceJson());
    if (!valid.ok()) {
      std::fprintf(stderr, "trace self-check failed: %s\n",
                   valid.ToString().c_str());
      return code != 0 ? code : 1;
    }
    std::printf("wrote trace %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }

  if (telemetry_started) obs::StopTelemetry();
  obs::StopEventLog();  // idempotent; flushes the tail of the JSON log
  return code;
}

}  // namespace
}  // namespace tg

int main(int argc, char** argv) { return tg::Run(argc, argv); }
