// Observability substrate tests: span nesting and parent handoff across
// ParallelFor, histogram bucket math, counter updates from pool workers
// (TSan-clean), exporter JSON validity, and the determinism contract --
// pipeline outputs are bit-identical with tracing on or off.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json_util.h"
#include "util/thread_pool.h"

namespace tg {
namespace {

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

// Every test leaves the process in the default quiet state so ordering
// between tests (and with other suites in this binary) does not matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTraceEnabled(false);
    obs::SetMetricsEnabled(false);
    obs::ResetSpans();
  }
  void TearDown() override {
    obs::SetTraceEnabled(false);
    obs::SetMetricsEnabled(false);
    obs::ResetSpans();
    SetThreadCount(0);
  }
};

TEST_F(ObsTest, SpanNestingRecordsParentChain) {
  obs::SetTraceEnabled(true);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    obs::Span outer("outer_scope");
    outer_id = outer.id();
    EXPECT_EQ(obs::CurrentSpanId(), outer_id);
    {
      obs::Span inner("inner_scope");
      inner_id = inner.id();
      EXPECT_EQ(obs::CurrentSpanId(), inner_id);
    }
    EXPECT_EQ(obs::CurrentSpanId(), outer_id);
  }
  EXPECT_EQ(obs::CurrentSpanId(), 0u);

  const std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
  const auto outer_spans = SpansNamed(spans, "outer_scope");
  const auto inner_spans = SpansNamed(spans, "inner_scope");
  ASSERT_EQ(outer_spans.size(), 1u);
  ASSERT_EQ(inner_spans.size(), 1u);
  EXPECT_EQ(outer_spans[0].parent, 0u);
  EXPECT_EQ(inner_spans[0].parent, outer_id);
  EXPECT_GE(inner_spans[0].start_ns, outer_spans[0].start_ns);
  EXPECT_LE(inner_spans[0].end_ns, outer_spans[0].end_ns);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  {
    TG_TRACE_SPAN("invisible");
    EXPECT_EQ(obs::CurrentSpanId(), 0u);
  }
  EXPECT_TRUE(SpansNamed(obs::SnapshotSpans(), "invisible").empty());
}

TEST_F(ObsTest, ResetSpansSectionsTheBuffer) {
  obs::SetTraceEnabled(true);
  { TG_TRACE_SPAN("before_reset"); }
  obs::ResetSpans();
  { TG_TRACE_SPAN("after_reset"); }
  const std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
  EXPECT_TRUE(SpansNamed(spans, "before_reset").empty());
  EXPECT_EQ(SpansNamed(spans, "after_reset").size(), 1u);
}

TEST_F(ObsTest, ParallelForHandsParentToPoolWorkers) {
  obs::SetTraceEnabled(true);
  SetThreadCount(2);  // force the pool path even on a 1-core host
  constexpr size_t kItems = 256;

  uint64_t outer_id = 0;
  {
    obs::Span outer("pf_outer");
    outer_id = outer.id();
    ParallelFor(0, kItems, 1, [](size_t begin, size_t end, size_t /*chunk*/) {
      for (size_t i = begin; i < end; ++i) {
        TG_TRACE_SPAN("pf_chunk");
      }
    });
  }

  const std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
  const auto drains = SpansNamed(spans, "pool_drain");
  const auto chunks = SpansNamed(spans, "pf_chunk");
  ASSERT_FALSE(drains.empty());
  EXPECT_EQ(chunks.size(), kItems);

  // Every drain loop -- caller and workers alike -- attaches to the span
  // that enqueued the region, not to whatever that thread traced last.
  for (const obs::SpanRecord& d : drains) {
    EXPECT_EQ(d.parent, outer_id);
  }
  // Chunk spans nest under one of those drains.
  std::vector<uint64_t> drain_ids;
  for (const obs::SpanRecord& d : drains) drain_ids.push_back(d.id);
  for (const obs::SpanRecord& c : chunks) {
    EXPECT_TRUE(std::find(drain_ids.begin(), drain_ids.end(), c.parent) !=
                drain_ids.end())
        << "pf_chunk parent " << c.parent << " is not a pool_drain span";
  }
  // At least one chunk span really ran on a pool worker thread.
  uint32_t caller_tid = drains[0].tid;
  for (const obs::SpanRecord& d : drains) {
    if (d.id == chunks[0].parent) caller_tid = d.tid;
  }
  (void)caller_tid;
  std::vector<uint32_t> tids;
  for (const obs::SpanRecord& c : chunks) tids.push_back(c.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_GE(tids.size(), 1u);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  obs::Histogram h;  // defaults: first_bound 1e-6, growth 2, 36 buckets
  EXPECT_DOUBLE_EQ(h.BucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(h.BucketUpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(h.BucketUpperBound(2), 4e-6);
  EXPECT_TRUE(std::isinf(h.BucketUpperBound(h.num_buckets() - 1)));

  h.Observe(5e-7);   // below first bound -> bucket 0
  h.Observe(1e-6);   // exactly on an inclusive upper bound -> bucket 0
  h.Observe(2e-6);   // exactly on bucket 1's bound -> bucket 1
  h.Observe(2.5e-6); // strictly inside bucket 2
  h.Observe(1e9);    // far above the last finite bound -> overflow

  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(h.num_buckets() - 1), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 5e-7);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);

  // Quantiles resolve to bucket upper bounds; the overflow bucket reports
  // the observed max instead of +inf.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2e-6);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1e9);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.BucketCount(0), 0u);
}

TEST_F(ObsTest, CountersAggregateAcrossPoolWorkers) {
  SetThreadCount(4);
  obs::Counter& counter = obs::MetricsRegistry::Instance().GetCounter(
      "obs_test.concurrent_counter");
  counter.Reset();
  obs::Gauge& gauge =
      obs::MetricsRegistry::Instance().GetGauge("obs_test.concurrent_gauge");
  gauge.Reset();
  obs::Histogram& hist = obs::MetricsRegistry::Instance().GetHistogram(
      "obs_test.concurrent_hist");
  hist.Reset();

  constexpr size_t kItems = 10000;
  ParallelFor(0, kItems, 7, [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (size_t i = begin; i < end; ++i) {
      counter.Increment();
      gauge.Add(1.0);
      hist.Observe(1e-6);
    }
  });
  EXPECT_EQ(counter.value(), kItems);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kItems));
  EXPECT_EQ(hist.count(), kItems);
  EXPECT_EQ(hist.BucketCount(0), kItems);
}

TEST_F(ObsTest, SnapshotReportsQuantiles) {
  obs::Histogram& hist = obs::MetricsRegistry::Instance().GetHistogram(
      "obs_test.quantile_hist");
  hist.Reset();
  // 100 observations spread across decades: p50 lands in the middle
  // buckets, p95 and p99 in the tail.
  for (int i = 0; i < 90; ++i) hist.Observe(1e-6);
  for (int i = 0; i < 8; ++i) hist.Observe(1e-3);
  for (int i = 0; i < 2; ++i) hist.Observe(1.0);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Instance().Snapshot();
  const obs::HistogramStats& stats =
      snapshot.histograms.at("obs_test.quantile_hist");
  EXPECT_EQ(stats.count, 100u);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_LE(stats.p50, 2e-6);   // within the 1us region
  EXPECT_GE(stats.p95, 1e-3);   // pulled into the millisecond tail
  EXPECT_GE(stats.p99, 0.5);    // the two 1s outliers own the last percent
  // The quantiles also surface in the JSON dump and the rendered table.
  const std::string json = obs::MetricsRegistry::Instance().ToJson();
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string table = obs::MetricsRegistry::Instance().RenderTable();
  EXPECT_NE(table.find("p99"), std::string::npos);
  hist.Reset();
}

TEST_F(ObsTest, SpanFeedsStageHistogramWhenMetricsEnabled) {
  obs::SetMetricsEnabled(true);
  obs::Histogram& stage = obs::StageHistogram("obs_test_stage");
  stage.Reset();
  { TG_TRACE_SPAN("obs_test_stage"); }
  EXPECT_EQ(stage.count(), 1u);

  // Metrics off: the span is a no-op for the histogram too.
  obs::SetMetricsEnabled(false);
  { TG_TRACE_SPAN("obs_test_stage"); }
  EXPECT_EQ(stage.count(), 1u);
}

TEST_F(ObsTest, ExportedJsonValidates) {
  obs::SetTraceEnabled(true);
  obs::SetMetricsEnabled(true);
  {
    // Detail strings with every character class the escaper must handle.
    TG_TRACE_SPAN2("escape_check", "quote \" backslash \\ newline \n tab \t");
    TG_TRACE_SPAN("plain_span");
  }
  obs::MetricsRegistry::Instance()
      .GetCounter("obs_test.export \"quoted\" name")
      .Increment();

  const std::string trace = obs::ChromeTraceJson();
  EXPECT_TRUE(JsonValidate(trace).ok()) << JsonValidate(trace).ToString();
  EXPECT_NE(trace.find("escape_check"), std::string::npos);
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);

  const std::string metrics = obs::MetricsRegistry::Instance().ToJson();
  EXPECT_TRUE(JsonValidate(metrics).ok()) << JsonValidate(metrics).ToString();
  EXPECT_NE(metrics.find("histograms"), std::string::npos);
}

TEST_F(ObsTest, JsonHelpers) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonQuote("x"), "\"x\"");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "0");

  EXPECT_TRUE(JsonValidate("{\"a\": [1, 2.5, -3e2, true, null]}").ok());
  EXPECT_FALSE(JsonValidate("{").ok());
  EXPECT_FALSE(JsonValidate("{\"a\": 1,}").ok());
  EXPECT_FALSE(JsonValidate("[1 2]").ok());
  EXPECT_FALSE(JsonValidate("{} trailing").ok());
  EXPECT_FALSE(JsonValidate("\"unterminated").ok());
}

// The determinism contract from docs/observability.md: enabling tracing and
// metrics must not perturb pipeline numerics. Two pipelines over the same
// zoo (fresh embedding caches each) must agree bit-for-bit.
zoo::ModelZooConfig SmallZooConfig() {
  zoo::ModelZooConfig zoo_config;
  zoo_config.catalog.num_image_models = 48;
  zoo_config.catalog.num_text_models = 24;
  zoo_config.world.max_samples_per_dataset = 80;
  return zoo_config;
}

// Cheap Node2Vec graph features, so queries build graphs.
core::PipelineConfig SmallN2vConfig() {
  core::PipelineConfig config;
  config.strategy = {core::PredictorKind::kLinearRegression,
                     core::GraphLearner::kNode2Vec, core::FeatureSet::kAll};
  config.node2vec.walk.walks_per_node = 6;
  config.node2vec.walk.walk_length = 15;
  config.node2vec.skipgram.dim = 24;
  config.node2vec.skipgram.epochs = 2;
  return config;
}

TEST_F(ObsTest, PipelineOutputsIdenticalWithTracingOnOrOff) {
  zoo::ModelZoo zoo(SmallZooConfig());
  const size_t target = zoo.EvaluationTargets(zoo::Modality::kImage)[0];
  const core::PipelineConfig config = SmallN2vConfig();

  core::Pipeline quiet_pipeline(&zoo, zoo::Modality::kImage);
  const core::TargetEvaluation quiet =
      quiet_pipeline.EvaluateTarget(config, target);

  obs::SetTraceEnabled(true);
  obs::SetMetricsEnabled(true);
  core::Pipeline traced_pipeline(&zoo, zoo::Modality::kImage);
  const core::TargetEvaluation traced =
      traced_pipeline.EvaluateTarget(config, target);

  ASSERT_EQ(traced.predicted.size(), quiet.predicted.size());
  for (size_t i = 0; i < quiet.predicted.size(); ++i) {
    EXPECT_EQ(traced.predicted[i], quiet.predicted[i]) << "model " << i;
  }
  EXPECT_EQ(traced.pearson, quiet.pearson);

  // And the traced run actually produced spans for the pipeline stages.
  const std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
  EXPECT_FALSE(SpansNamed(spans, "evaluate_target").empty());
  EXPECT_FALSE(SpansNamed(spans, "walk_corpus").empty());

  // graph_build's children name where the cold path's time goes.
  const auto builds = SpansNamed(spans, "graph_build");
  ASSERT_EQ(builds.size(), 1u);
  for (const char* child :
       {"dataset_embeddings", "score_fill", "dd_similarity"}) {
    const auto found = SpansNamed(spans, child);
    ASSERT_EQ(found.size(), 1u) << child;
    EXPECT_EQ(found[0].parent, builds[0].id) << child;
  }
}

// A sweep driver fills the zoo's caches once, under its own span, before it
// fans out; the fill's spans nest under that pre-fill span.
TEST_F(ObsTest, SweepPrefillSpanNestsUnderTheDriver) {
  zoo::ModelZoo zoo(SmallZooConfig());
  obs::SetTraceEnabled(true);
  core::Pipeline pipeline(&zoo, zoo::Modality::kImage);
  pipeline.EvaluateAllTargetsResumable(SmallN2vConfig(),
                                       core::SweepOptions{});
  obs::SetTraceEnabled(false);

  const std::vector<obs::SpanRecord> spans = obs::SnapshotSpans();
  const auto drivers = SpansNamed(spans, "evaluate_all_targets");
  const auto prefills = SpansNamed(spans, "sweep_prefill");
  ASSERT_EQ(drivers.size(), 1u);
  ASSERT_EQ(prefills.size(), 1u);
  EXPECT_EQ(prefills[0].parent, drivers[0].id);
  for (const char* child : {"dataset_embeddings", "score_fill"}) {
    const auto found = SpansNamed(spans, child);
    EXPECT_TRUE(std::any_of(found.begin(), found.end(),
                            [&](const obs::SpanRecord& s) {
                              return s.parent == prefills[0].id;
                            }))
        << child << " has no span under sweep_prefill";
  }
}

}  // namespace
}  // namespace tg
