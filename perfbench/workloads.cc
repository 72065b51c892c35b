// tg_perfbench: drives TransferGraph through its public API for one
// benchmark workload and prints the raw measurements as one JSON line.
//
//   tg_perfbench --workload query-cold|query-warm|sweep-image --seed N
//                --seconds S [--trace 0|1] [--tiny] [--perturb]
//
// Untraced runs (--trace 0) time whole operations with the metrics registry
// off. Traced runs (--trace 1) produce per-layer numbers instead (replay.cc).
// perfbench/run.py builds this binary, aggregates its output and applies the
// cross-run correctness gate.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "perfbench.h"
#include "util/json_util.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

using tg::core::Pipeline;
using tg::core::PipelineConfig;
using tg::core::SweepResult;
using tg::core::TargetEvaluation;
using tg::zoo::Modality;
using tg::zoo::ModelZoo;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

tg::zoo::ModelZooConfig ZooConfig(const Options& options) {
  tg::zoo::ModelZooConfig config;
  config.world.seed = options.seed;
  if (options.tiny) {
    config.catalog.num_image_models = 12;
    config.catalog.num_text_models = 12;
  }
  return config;
}

PipelineConfig DefaultPipelineConfig() { return PipelineConfig{}; }

std::vector<size_t> Rotation(const ModelZoo& zoo, uint64_t seed) {
  std::vector<size_t> targets = zoo.EvaluationTargets(Modality::kImage);
  // Fisher-Yates on SplitMix64, so the order is the same on every platform.
  uint64_t state = seed ^ 0x5DEECE66DULL;
  auto next = [&state] {
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (size_t i = targets.size(); i > 1; --i) {
    std::swap(targets[i - 1], targets[next() % i]);
  }
  return targets;
}

namespace {

// FNV-1a over the bit patterns of a prediction vector, as 16 hex digits.
std::string Digest(const std::vector<double>& values) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

// Builds one flat JSON object; values are written with all their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Build() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += tg::JsonQuote(key) + ":";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += tg::JsonNumber(value, 17);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += tg::JsonQuote(value);
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

// Set-ups that are cheap enough to repeat are repeated this often per run;
// setup_s is their median.
constexpr int kSetupRepeats = 9;

// Wall and process CPU time since construction. CPU time excludes time the
// host steals from the VM's vCPUs, so it stays steady where wall time does
// not; both are reported.
class Stopwatch {
 public:
  Stopwatch() : wall_(NowSeconds()), cpu_(CpuSeconds()) {}
  void Record(std::vector<double>* wall_s, std::vector<double>* cpu_s) const {
    wall_s->push_back(NowSeconds() - wall_);
    cpu_s->push_back(CpuSeconds() - cpu_);
  }

 private:
  double wall_;
  double cpu_;
};

// Decides whether to start another timed operation: always the first
// `min_ops`, then only while the previous operation's duration still fits in
// --seconds, so a run lasts about --seconds whatever one operation costs.
class OpBudget {
 public:
  OpBudget(double seconds, size_t min_ops)
      : seconds_(seconds), min_ops_(min_ops), start_(NowSeconds()) {}
  bool Next(const std::vector<double>& op_s) const {
    return op_s.size() < min_ops_ ||
           NowSeconds() - start_ + op_s.back() <= seconds_;
  }

 private:
  double seconds_;
  size_t min_ops_;
  double start_;
};

// query-cold always queries this many targets of its rotation, and scores
// quality on exactly those, so top5_acc does not depend on how many queries
// fit in a run.
constexpr size_t kColdQualityTargets = 3;

struct Run {
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  // One entry per timed operation: a query, or one whole sweep.
  std::vector<double> op_s;
  std::vector<double> op_cpu_s;
  size_t targets_per_op = 1;
  // Image evaluation targets of the world (the rotation's length).
  size_t num_targets = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  // First evaluation of each target, in evaluation order.
  std::vector<TargetEvaluation> evaluations;
  // top5_acc covers the first this-many evaluations (0: all of them).
  size_t quality_targets = 0;
};

// Checks one evaluation against the gate's per-result rules; returns false
// (and records why) on a violation.
bool CheckEvaluation(const TargetEvaluation& eval, Run* run) {
  std::string why;
  for (double p : eval.predicted) {
    if (!std::isfinite(p)) why = "non-finite prediction";
  }
  if (eval.predicted.empty()) why = "no predictions";
  if (!(eval.pearson >= -1.0 && eval.pearson <= 1.0)) {
    why = "pearson outside [-1, 1]";
  }
  if (why.empty()) return true;
  run->failures.push_back(eval.target_name + ": " + why);
  return false;
}

void Perturb(TargetEvaluation* eval) {
  if (eval->predicted.empty()) return;
  eval->predicted[0] = std::nextafter(eval->predicted[0], 1e300);
}

void RecordEvaluation(const TargetEvaluation& eval, Run* run) {
  for (const TargetEvaluation& seen : run->evaluations) {
    if (seen.target_dataset == eval.target_dataset) return;
  }
  run->evaluations.push_back(eval);
}

// One leave-one-out query with TryEvaluateTarget semantics: a throw or a
// non-finite prediction is a failed attempt, not a crash.
bool Query(Pipeline* pipeline, size_t target, const Options& options,
           Run* run, TargetEvaluation* out) {
  std::string error;
  ++run->attempted;
  if (!pipeline->TryEvaluateTarget(DefaultPipelineConfig(), target, out,
                                   &error)) {
    run->failures.push_back(error);
    ++run->failed;
    return false;
  }
  if (options.perturb && run->evaluations.empty()) Perturb(out);
  if (!CheckEvaluation(*out, run)) {
    ++run->failed;
    return false;
  }
  return true;
}

// The rotation plus a warm global pool: everything a fresh process needs
// before its first query or sweep.
std::vector<size_t> ColdSetup(const Options& options, Run* run) {
  std::vector<size_t> rotation;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Stopwatch watch;
    ModelZoo zoo(ZooConfig(options));
    rotation = Rotation(zoo, options.seed);
    tg::GlobalThreadPool();
    watch.Record(&run->setup_s, &run->setup_cpu_s);
  }
  return rotation;
}

// query-cold: every query pays for a fresh zoo and pipeline, as one
// `tg_cli rank` invocation does.
Run RunQueryCold(const Options& options) {
  tg::SetThreadCount(kParallelThreads);
  Run run;
  const std::vector<size_t> rotation = ColdSetup(options, &run);
  run.num_targets = rotation.size();
  run.quality_targets = kColdQualityTargets;
  const OpBudget budget(options.seconds, kColdQualityTargets);
  for (size_t i = 0; budget.Next(run.op_s); ++i) {
    const size_t target = rotation[i % rotation.size()];
    const Stopwatch watch;
    TargetEvaluation eval;
    bool ok = false;
    {
      ModelZoo zoo(ZooConfig(options));
      Pipeline pipeline(&zoo, Modality::kImage);
      ok = Query(&pipeline, target, options, &run, &eval);
    }
    watch.Record(&run.op_s, &run.op_cpu_s);
    if (ok) RecordEvaluation(eval, &run);
  }
  return run;
}

// Counts one resumable sweep's targets as attempts, its degraded and failed
// targets as failures, and checks every result it returned.
void RecordSweep(tg::core::SweepResult* result, const Options& options,
                 Run* run) {
  run->attempted += result->evaluations.size();
  run->failed += result->degraded + result->failed;
  for (const std::string& error : result->errors) {
    run->failures.push_back(error);
  }
  for (TargetEvaluation& eval : result->evaluations) {
    if (eval.failed || eval.degraded) continue;
    if (options.perturb && run->evaluations.empty()) Perturb(&eval);
    if (!CheckEvaluation(eval, run)) {
      ++run->failed;
      continue;
    }
    // Repeated sweeps of one run must agree with each other too.
    for (const TargetEvaluation& first : run->evaluations) {
      if (first.target_dataset == eval.target_dataset &&
          first.predicted != eval.predicted) {
        run->failures.push_back(eval.target_name +
                                ": sweeps of one run disagree");
        ++run->failed;
      }
    }
    RecordEvaluation(eval, run);
  }
}

// query-warm: one long-lived zoo and pipeline. Set-up evaluates every target
// of the rotation once with a sweep (filling the score, dataset-embedding and
// node-embedding caches); timed re-queries must reproduce the set-up results
// bit for bit. The sweep runs each target's inner loops serially on one pool
// worker, a query runs them on all 4 threads. Queries use 4 threads because
// 1-thread GBDT fits drifted by up to 45% between runs of one seed.
Run RunQueryWarm(const Options& options) {
  tg::SetThreadCount(kParallelThreads);
  Run run;
  const Stopwatch setup;
  ModelZoo zoo(ZooConfig(options));
  Pipeline pipeline(&zoo, Modality::kImage);
  const std::vector<size_t> rotation = Rotation(zoo, options.seed);
  run.num_targets = rotation.size();
  SweepResult warmup = pipeline.EvaluateAllTargetsResumable(
      DefaultPipelineConfig(), tg::core::SweepOptions{});
  RecordSweep(&warmup, options, &run);
  setup.Record(&run.setup_s, &run.setup_cpu_s);

  const OpBudget budget(options.seconds, 1);
  for (size_t i = 0; budget.Next(run.op_s); ++i) {
    const size_t target = rotation[i % rotation.size()];
    const Stopwatch watch;
    TargetEvaluation eval;
    const bool ok = Query(&pipeline, target, options, &run, &eval);
    watch.Record(&run.op_s, &run.op_cpu_s);
    if (!ok) continue;
    for (const TargetEvaluation& first : run.evaluations) {
      if (first.target_dataset == target && first.predicted != eval.predicted) {
        run.failures.push_back(eval.target_name +
                               ": warm re-query differs from set-up result");
        ++run.failed;
      }
    }
  }
  return run;
}

// sweep-image: a fresh zoo, then the resumable leave-one-out sweep over
// every image target with no checkpoint (`tg_cli sweep`).
Run RunSweep(const Options& options) {
  tg::SetThreadCount(kParallelThreads);
  Run run;
  run.num_targets = ColdSetup(options, &run).size();
  const OpBudget budget(options.seconds, 1);
  while (budget.Next(run.op_s)) {
    const Stopwatch watch;
    SweepResult result;
    {
      ModelZoo zoo(ZooConfig(options));
      Pipeline pipeline(&zoo, Modality::kImage);
      result = pipeline.EvaluateAllTargetsResumable(DefaultPipelineConfig(),
                                                    tg::core::SweepOptions{});
    }
    watch.Record(&run.op_s, &run.op_cpu_s);
    run.targets_per_op = result.evaluations.size();
    RecordSweep(&result, options, &run);
  }
  return run;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string DoubleArray(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double v : values) items.push_back(tg::JsonNumber(v, 17));
  return JsonArray(items);
}

std::string StringArray(const std::vector<std::string>& values) {
  std::vector<std::string> items;
  for (const std::string& v : values) items.push_back(tg::JsonQuote(v));
  return JsonArray(items);
}

std::string RunJson(const Run& run) {
  std::vector<std::string> evaluations;
  for (const TargetEvaluation& eval : run.evaluations) {
    evaluations.push_back(JsonObject()
                              .Str("target", eval.target_name)
                              .Str("digest", Digest(eval.predicted))
                              .Num("top5", eval.TopKMeanAccuracy(5))
                              .Build());
  }
  return JsonObject()
      .Raw("setup_s", DoubleArray(run.setup_s))
      .Raw("setup_cpu_s", DoubleArray(run.setup_cpu_s))
      .Raw("op_s", DoubleArray(run.op_s))
      .Raw("op_cpu_s", DoubleArray(run.op_cpu_s))
      .Num("targets_per_op", static_cast<double>(run.targets_per_op))
      .Num("num_targets", static_cast<double>(run.num_targets))
      .Num("quality_targets", static_cast<double>(run.quality_targets))
      .Num("attempted", static_cast<double>(run.attempted))
      .Num("failed", static_cast<double>(run.failed))
      .Raw("failures", StringArray(run.failures))
      .Raw("evaluations", JsonArray(evaluations))
      .Num("peak_rss_mb", PeakRssMb())
      .Build();
}

std::string LayersJson(const LayerMetrics& layers,
                       const std::vector<std::string>& failures) {
  JsonObject metrics;
  for (const auto& [name, value] : layers) metrics.Num(name, value);
  return JsonObject()
      .Num("attempted", 1)
      .Num("failed", failures.empty() ? 0 : 1)
      .Raw("failures", StringArray(failures))
      .Raw("layers", metrics.Build())
      .Build();
}

int Usage() {
  std::fprintf(stderr,
               "usage: tg_perfbench --workload "
               "query-cold|query-warm|sweep-image --seed N --seconds S "
               "[--trace 0|1] [--tiny] [--perturb]\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options->tiny = true;
      continue;
    }
    if (flag == "--perturb") {
      options->perturb = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      size_t used = 0;
      if (flag == "--workload") {
        options->workload = value;
        used = value.size();
      } else if (flag == "--seed") {
        options->seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        options->seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        options->trace = std::stoi(value, &used) != 0;
      } else {
        return false;
      }
      if (used != value.size()) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return options->workload == "query-cold" ||
         options->workload == "query-warm" ||
         options->workload == "sweep-image";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  Options options;
  if (!ParseOptions(argc, argv, &options)) return Usage();
  tg::SetLogLevel(tg::LogLevel::kWarning);

  std::string json;
  if (options.trace) {
    std::vector<std::string> failures;
    LayerMetrics layers;
    if (options.workload == "query-cold") {
      layers = TraceQueryCold(options, &failures);
    } else if (options.workload == "query-warm") {
      layers = TraceQueryWarm(options, &failures);
    } else {
      layers = TraceSweep(options, &failures);
    }
    json = LayersJson(layers, failures);
  } else {
    Run run;
    if (options.workload == "query-cold") {
      run = RunQueryCold(options);
    } else if (options.workload == "query-warm") {
      run = RunQueryWarm(options);
    } else {
      run = RunSweep(options);
    }
    json = RunJson(run);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
