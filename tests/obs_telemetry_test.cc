// Telemetry plane tests: Prometheus exposition grammar and name-mapping
// audit, live scrapes racing ParallelFor (TSan target), /statusz progress
// during a real sweep, structured event-log JSON validity, token-bucket
// shedding accounting, clean degradation under injected bind/accept faults,
// and the determinism contract -- sweep outputs bit-identical with the whole
// plane on or off.
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/fault.h"
#include "util/http_server.h"
#include "util/json_util.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

// Every test restores the quiet default state so suite ordering never
// matters (the same discipline as ObsTest).
class ObsTelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::StopTelemetry();
    obs::StopEventLog();
    obs::SetTraceEnabled(false);
    obs::SetMetricsEnabled(false);
    fault::ClearFaults();
    SetThreadCount(0);
  }
};

// --- Name mapping ------------------------------------------------------------

TEST_F(ObsTelemetryTest, PrometheusNameMapsDotsAndPrefixes) {
  EXPECT_EQ(obs::PrometheusName("sweep.targets_done"),
            "tg_sweep_targets_done");
  EXPECT_EQ(obs::PrometheusName("stage.graph_build.seconds"),
            "tg_stage_graph_build_seconds");
  EXPECT_EQ(obs::PrometheusName("a-b c.d"), "tg_a_b_c_d");
}

TEST_F(ObsTelemetryTest, RegistryWideExpositionAuditPasses) {
  // Touch representative instruments of every type, then audit the whole
  // registry: every expanded name legal, no post-mapping collisions.
  obs::MetricsRegistry::Instance().GetCounter("pipeline.target_retries");
  obs::MetricsRegistry::Instance().GetGauge("sweep.targets_done");
  obs::StageHistogram("graph_build");
  const Status audit = obs::CheckPrometheusExposition();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST_F(ObsTelemetryTest, ExpositionAuditCatchesCollisions) {
  // "a.b" and "a_b" both map to tg_a_b: the audit must flag it. Registered
  // as gauges so they do not pick up type suffixes.
  obs::MetricsRegistry::Instance().GetGauge("collide.on_purpose");
  obs::MetricsRegistry::Instance().GetGauge("collide_on.purpose");
  const Status audit = obs::CheckPrometheusExposition();
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.ToString().find("collision"), std::string::npos)
      << audit.ToString();
}

// --- Exposition grammar ------------------------------------------------------

// Minimal structural check of the text exposition: every line is a comment
// or "<name>[{le="..."}] <value>", histogram buckets are cumulative and end
// at +Inf, and _count equals the +Inf bucket.
TEST_F(ObsTelemetryTest, PrometheusTextExpositionIsWellFormed) {
  obs::SetMetricsEnabled(true);
  static obs::Counter& counter =
      obs::MetricsRegistry::Instance().GetCounter("telemetry_test.events");
  counter.Increment(3);
  obs::MetricsRegistry::Instance().GetGauge("telemetry_test.level").Set(1.5);
  obs::Histogram& hist = obs::StageHistogram("telemetry_test_stage");
  hist.Observe(0.001);
  hist.Observe(0.5);
  hist.Observe(1e9);  // lands in the overflow bucket

  const std::string text = obs::RenderPrometheusText();
  std::istringstream lines(text);
  std::string line;
  uint64_t last_cumulative = 0;
  uint64_t inf_bucket = 0;
  bool saw_test_histogram = false;
  const std::string bucket_prefix = "tg_stage_telemetry_test_stage_seconds";
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      ASSERT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    // Names: tg_ prefix, optional single {le="..."} label set.
    ASSERT_EQ(name.rfind("tg_", 0), 0u) << line;
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(name.find("{le=\""), brace) << line;
      ASSERT_EQ(name.back(), '}') << line;
    }
    if (name.rfind(bucket_prefix + "_bucket", 0) == 0) {
      saw_test_histogram = true;
      const uint64_t cumulative = std::stoull(value);
      EXPECT_GE(cumulative, last_cumulative) << line;  // cumulative series
      last_cumulative = cumulative;
      if (name.find("+Inf") != std::string::npos) inf_bucket = cumulative;
    }
    if (name == bucket_prefix + "_count") {
      EXPECT_EQ(std::stoull(value), inf_bucket) << line;
      EXPECT_GE(std::stoull(value), 3u) << line;
    }
  }
  EXPECT_TRUE(saw_test_histogram);
  EXPECT_GE(inf_bucket, 3u);
}

// --- Live endpoints ----------------------------------------------------------

TEST_F(ObsTelemetryTest, ScrapeDuringParallelForIsCleanAndValid) {
  ASSERT_TRUE(obs::StartTelemetry(0).ok());
  const int port = obs::TelemetryPort();
  ASSERT_GT(port, 0);
  EXPECT_EQ(obs::TelemetryStatusString(), "ok");

  // Pool workers open spans and bump metrics while the main thread scrapes:
  // the TSan build of this test is the data-race gate for the registry
  // snapshot and the cross-thread open-span reads.
  // Resolved before the first scrape so the sample is present from the
  // start; the worker only increments.
  obs::Counter& spins =
      obs::MetricsRegistry::Instance().GetCounter("telemetry_test.spins");
  std::atomic<bool> stop{false};
  std::thread worker([&stop, &spins] {
    while (!stop.load(std::memory_order_relaxed)) {
      ParallelFor(0, 64, 8, [&](size_t begin, size_t end, size_t /*chunk*/) {
        TG_TRACE_SPAN("telemetry_test_chunk");
        for (size_t i = begin; i < end; ++i) spins.Increment();
      });
    }
  });
  for (int i = 0; i < 20; ++i) {
    Result<HttpGetResult> metrics = HttpGet(port, "/metrics");
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    EXPECT_EQ(metrics.value().status, 200);
    EXPECT_NE(metrics.value().body.find("tg_telemetry_test_spins_total"),
              std::string::npos);

    Result<HttpGetResult> statusz = HttpGet(port, "/statusz");
    ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
    EXPECT_EQ(statusz.value().status, 200);
    const Status valid = JsonValidate(statusz.value().body);
    EXPECT_TRUE(valid.ok()) << valid.ToString();

    Result<HttpGetResult> health = HttpGet(port, "/healthz");
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health.value().body, "ok\n");

    Result<HttpGetResult> missing = HttpGet(port, "/nope");
    ASSERT_TRUE(missing.ok()) << missing.status().ToString();
    EXPECT_EQ(missing.value().status, 404);
  }
  stop.store(true, std::memory_order_relaxed);
  worker.join();
  obs::StopTelemetry();
  EXPECT_EQ(obs::TelemetryStatusString(), "disabled");
}

TEST_F(ObsTelemetryTest, StatuszSweepProgressAdvancesDuringLiveSweep) {
  zoo::ModelZooConfig zoo_config;
  zoo_config.catalog.num_image_models = 48;
  zoo_config.catalog.num_text_models = 24;
  zoo_config.world.max_samples_per_dataset = 80;
  zoo::ModelZoo zoo(zoo_config);
  core::Pipeline pipeline(&zoo, zoo::Modality::kImage);
  core::PipelineConfig config;
  config.strategy = core::Strategy{core::PredictorKind::kLinearRegression,
                                   core::GraphLearner::kNone,
                                   core::FeatureSet::kMetadataOnly};

  ASSERT_TRUE(obs::StartTelemetry(0).ok());
  const int port = obs::TelemetryPort();

  std::thread sweep([&] {
    (void)pipeline.EvaluateAllTargetsResumable(config, core::SweepOptions{});
  });
  // Poll /statusz while the sweep runs; progress must be monotone and land
  // exactly on total once joined.
  std::vector<double> observed;
  double total = 0.0;
  while (true) {
    Result<HttpGetResult> statusz = HttpGet(port, "/statusz");
    ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
    Result<JsonValue> parsed = JsonValue::Parse(statusz.value().body);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue* sweep_obj = parsed.value().Find("sweep");
    ASSERT_NE(sweep_obj, nullptr);
    const double done = sweep_obj->Find("targets_done")->AsDouble();
    total = sweep_obj->Find("targets_total")->AsDouble();
    observed.push_back(done);
    if (total > 0.0 && done >= total) break;
  }
  sweep.join();
  ASSERT_GE(total, 1.0);
  for (size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GE(observed[i], observed[i - 1]);  // monotone progress
  }
  EXPECT_EQ(observed.back(), total);
}

// --- Event log ---------------------------------------------------------------

TEST_F(ObsTelemetryTest, EventLogRecordsAreStrictJsonWithSpanChains) {
  const std::string path = TempPath("event_log_records.jsonl");
  obs::EventLogOptions options;
  options.span_threshold_ms = 0.0;  // every span close is logged
  options.flush_interval_ms = 5;
  ASSERT_TRUE(obs::StartEventLog(path, options).ok());
  EXPECT_EQ(obs::EventLogPath(), path);
  EXPECT_FALSE(obs::StartEventLog(path, options).ok());  // already running

  TG_LOG(Error) << "structured line " << 42;
  {
    obs::Span outer("telemetry_test_outer");
    obs::Span inner("telemetry_test_inner");
    TG_LOG(Error) << "nested line";
    obs::EmitEvent("telemetry_test.event", "payload", "extra");
  }
  obs::StopEventLog();
  obs::StopEventLog();  // idempotent

  const std::string content = ReadWholeFile(path);
  std::istringstream lines(content);
  std::string line;
  size_t records = 0;
  bool saw_log = false;
  bool saw_span = false;
  bool saw_event = false;
  bool saw_nested_chain = false;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(JsonValidate(line).ok()) << line;
    Result<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok());
    const JsonValue& record = parsed.value();
    ++records;
    ASSERT_NE(record.Find("ts_ns"), nullptr) << line;
    ASSERT_NE(record.Find("tid"), nullptr) << line;
    ASSERT_NE(record.Find("spans"), nullptr) << line;
    const std::string kind = record.Find("kind")->AsString();
    if (kind == "log") {
      saw_log = true;
      EXPECT_EQ(record.Find("level")->AsString(), "ERROR");
      EXPECT_NE(record.Find("file"), nullptr);
      EXPECT_NE(record.Find("line"), nullptr);
      if (record.Find("msg")->AsString() == "nested line") {
        const JsonValue* spans = record.Find("spans");
        ASSERT_EQ(spans->size(), 2u) << line;
        EXPECT_EQ(spans->at(0).AsString(), "telemetry_test_outer");
        EXPECT_EQ(spans->at(1).AsString(), "telemetry_test_inner");
        saw_nested_chain = true;
      }
    } else if (kind == "span") {
      saw_span = true;
      EXPECT_NE(record.Find("name"), nullptr);
      EXPECT_NE(record.Find("dur_ns"), nullptr);
    } else if (kind == "telemetry_test.event") {
      saw_event = true;
      EXPECT_EQ(record.Find("msg")->AsString(), "payload");
      EXPECT_EQ(record.Find("detail")->AsString(), "extra");
    }
  }
  EXPECT_GE(records, 5u);
  EXPECT_TRUE(saw_log);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_nested_chain);
}

TEST_F(ObsTelemetryTest, RateLimiterShedsAndCountsDrops) {
  const std::string path = TempPath("event_log_shed.jsonl");
  obs::EventLogOptions options;
  options.rate_per_sec = 1.0;  // essentially no refill during the test
  options.burst = 10.0;
  options.flush_interval_ms = 5;
  const uint64_t emitted_before = obs::EventLogEmittedCount();
  const uint64_t dropped_before = obs::EventLogDroppedCount();
  ASSERT_TRUE(obs::StartEventLog(path, options).ok());
  constexpr int kBursts = 200;
  for (int i = 0; i < kBursts; ++i) {
    obs::EmitEvent("telemetry_test.flood", std::to_string(i));
  }
  obs::StopEventLog();
  const uint64_t emitted = obs::EventLogEmittedCount() - emitted_before;
  const uint64_t dropped = obs::EventLogDroppedCount() - dropped_before;
  // Every emission was either accepted or counted as shed...
  EXPECT_EQ(emitted + dropped, static_cast<uint64_t>(kBursts));
  // ...and the bucket admitted at most burst (+1 for refill slack).
  EXPECT_LE(emitted, 11u);
  EXPECT_GE(dropped, 189u);

  // The file holds exactly the accepted records.
  const std::string content = ReadWholeFile(path);
  std::istringstream lines(content);
  std::string line;
  uint64_t written = 0;
  while (std::getline(lines, line)) ++written;
  EXPECT_EQ(written, emitted);
}

TEST_F(ObsTelemetryTest, LogLinesRouteToEventLogNotStderrWhenEnabled) {
  const std::string path = TempPath("event_log_routed.jsonl");
  ASSERT_TRUE(obs::StartEventLog(path, obs::EventLogOptions{}).ok());
  TG_LOG(Error) << "routed through the structured log";
  obs::StopEventLog();
  const std::string content = ReadWholeFile(path);
  EXPECT_NE(content.find("routed through the structured log"),
            std::string::npos);
  // After Stop the sink is uninstalled: logging falls back to stderr and
  // the file no longer grows.
  TG_LOG(Error) << "back on stderr";
  EXPECT_EQ(ReadWholeFile(path).find("back on stderr"), std::string::npos);
}

// --- Determinism -------------------------------------------------------------

TEST_F(ObsTelemetryTest, SweepIsBitIdenticalWithTelemetryPlaneOn) {
  zoo::ModelZooConfig zoo_config;
  zoo_config.catalog.num_image_models = 48;
  zoo_config.catalog.num_text_models = 24;
  zoo_config.world.max_samples_per_dataset = 80;
  zoo::ModelZoo zoo(zoo_config);
  core::Pipeline pipeline(&zoo, zoo::Modality::kImage);
  core::PipelineConfig config;
  config.strategy = core::Strategy{core::PredictorKind::kLinearRegression,
                                   core::GraphLearner::kNone,
                                   core::FeatureSet::kMetadataOnly};

  const core::SweepResult baseline =
      pipeline.EvaluateAllTargetsResumable(config, core::SweepOptions{});

  // Whole plane on: scrape server, span publication, metrics, event log
  // with a zero span threshold. A scrape runs mid-sweep for good measure.
  ASSERT_TRUE(obs::StartTelemetry(0).ok());
  obs::EventLogOptions options;
  options.span_threshold_ms = 0.0;
  ASSERT_TRUE(
      obs::StartEventLog(TempPath("event_log_determinism.jsonl"), options)
          .ok());
  const int port = obs::TelemetryPort();
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)HttpGet(port, "/metrics");
      (void)HttpGet(port, "/statusz");
    }
  });
  const core::SweepResult live =
      pipeline.EvaluateAllTargetsResumable(config, core::SweepOptions{});
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  obs::StopEventLog();
  obs::StopTelemetry();

  ASSERT_EQ(baseline.evaluations.size(), live.evaluations.size());
  for (size_t i = 0; i < baseline.evaluations.size(); ++i) {
    const core::TargetEvaluation& a = baseline.evaluations[i];
    const core::TargetEvaluation& b = live.evaluations[i];
    EXPECT_EQ(a.target_name, b.target_name);
    EXPECT_EQ(a.model_indices, b.model_indices) << a.target_name;
    EXPECT_EQ(a.predicted, b.predicted) << a.target_name;
    EXPECT_EQ(a.actual, b.actual) << a.target_name;
    EXPECT_EQ(a.pearson, b.pearson) << a.target_name;
    EXPECT_EQ(a.spearman, b.spearman) << a.target_name;
  }
}

// --- Fault injection ---------------------------------------------------------

TEST_F(ObsTelemetryTest, InjectedBindFaultLatchesUnavailable) {
  ASSERT_TRUE(fault::InstallSpec("telemetry_bind=always").ok());
  const Status started = obs::StartTelemetry(0);
  EXPECT_FALSE(started.ok());
  EXPECT_FALSE(obs::TelemetryRunning());
  const std::string status = obs::TelemetryStatusString();
  EXPECT_EQ(status.rfind("unavailable", 0), 0u) << status;
  EXPECT_NE(status.find("telemetry_bind"), std::string::npos) << status;
  fault::ClearFaults();

  // The latched state is exported through build_info (and with it every
  // bench_timings.json written after the failure).
  const std::string build_info = BuildInfoJson();
  EXPECT_NE(build_info.find("\"telemetry\":\"unavailable"),
            std::string::npos)
      << build_info;

  // A later successful start clears the latch back to ok.
  ASSERT_TRUE(obs::StartTelemetry(0).ok());
  EXPECT_EQ(obs::TelemetryStatusString(), "ok");
  obs::StopTelemetry();
}

TEST_F(ObsTelemetryTest, OccupiedPortDegradesCleanly) {
  HttpServer occupant;
  occupant.Handle("/", [](const std::string&, const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(occupant.Start(0).ok());
  const Status started = obs::StartTelemetry(occupant.bound_port());
  EXPECT_FALSE(started.ok());
  EXPECT_FALSE(obs::TelemetryRunning());
  EXPECT_EQ(obs::TelemetryStatusString().rfind("unavailable", 0), 0u);
  occupant.Stop();
}

TEST_F(ObsTelemetryTest, InjectedAcceptFaultShutsServerDownGracefully) {
  ASSERT_TRUE(obs::StartTelemetry(0).ok());
  const int port = obs::TelemetryPort();
  ASSERT_TRUE(fault::InstallSpec("telemetry_accept=always").ok());
  // The poisoned accept kills the serve loop; the connection itself is
  // drained and refused, never crashing the process.
  (void)HttpGet(port, "/healthz", 500);
  for (int i = 0; i < 100 && obs::TelemetryRunning(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  fault::ClearFaults();
  EXPECT_FALSE(obs::TelemetryRunning());
  EXPECT_EQ(obs::TelemetryStatusString().rfind("unavailable", 0), 0u);
  obs::StopTelemetry();
}

// The event-log tuning knobs follow the TG_THREADS policy: a set but
// malformed or out-of-range value exits 1 naming the variable and its
// value, instead of silently keeping the default. The threadsafe death-test
// style re-executes the binary, so each child reads the knobs afresh.
using ObsTelemetryDeathTest = ObsTelemetryTest;

TEST_F(ObsTelemetryDeathTest, MalformedEventLogKnobsAreHardErrors) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("event_log_knobs.jsonl");
  ASSERT_EQ(setenv("TG_EVENT_LOG", path.c_str(), 1), 0);
  const std::pair<const char*, const char*> bad[] = {
      {"TG_EVENT_LOG_RATE", "fast"},   {"TG_EVENT_LOG_RATE", "0"},
      {"TG_EVENT_LOG_RATE", "-5"},     {"TG_EVENT_LOG_RATE", "100x"},
      {"TG_EVENT_LOG_RATE", "inf"},    {"TG_EVENT_LOG_SPAN_MS", "slow"},
      {"TG_EVENT_LOG_SPAN_MS", "-1"},  {"TG_EVENT_LOG_SPAN_MS", "nan"},
  };
  for (const auto& [name, value] : bad) {
    ASSERT_EQ(setenv(name, value, 1), 0);
    EXPECT_EXIT(obs::MaybeStartEventLogFromEnv(),
                ::testing::ExitedWithCode(1),
                std::string(name) + "=" + value + ": expected a finite number")
        << name << "=" << value;
    unsetenv(name);
  }
  // In-range values start the log.
  ASSERT_EQ(setenv("TG_EVENT_LOG_RATE", "500", 1), 0);
  ASSERT_EQ(setenv("TG_EVENT_LOG_SPAN_MS", "0", 1), 0);
  EXPECT_TRUE(obs::MaybeStartEventLogFromEnv());
  EXPECT_EQ(obs::EventLogPath(), path);
  unsetenv("TG_EVENT_LOG_RATE");
  unsetenv("TG_EVENT_LOG_SPAN_MS");
  unsetenv("TG_EVENT_LOG");
}

// TG_TELEMETRY_PORT follows the TG_THREADS policy: a set value that is not
// a port in [0, 65535] exits 1 naming it instead of running without
// telemetry. Only a failed bind still degrades.
TEST_F(ObsTelemetryDeathTest, MalformedPortEnvIsHardError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"abc", "-1", "65536", "80x", " 80"}) {
    ASSERT_EQ(setenv("TG_TELEMETRY_PORT", bad, 1), 0);
    EXPECT_EXIT(obs::MaybeStartTelemetryFromEnv(),
                ::testing::ExitedWithCode(1),
                std::string("TG_TELEMETRY_PORT=") + bad + ": expected a port")
        << bad;
  }
  unsetenv("TG_TELEMETRY_PORT");
}

}  // namespace
}  // namespace tg
