#include "obs/telemetry.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "numeric/kernel_backend.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/http_server.h"
#include "util/json_util.h"
#include "util/string_util.h"

namespace tg::obs {

namespace {

enum class PlaneState { kDisabled, kOk, kUnavailable };

struct TelemetryState {
  // Lifecycle (Start/Stop) lock. NOT taken by the status latch: the server
  // thread latches "unavailable" from its error callback while Stop() may
  // hold this lock and join that same thread.
  std::mutex mu;
  std::unique_ptr<HttpServer> server;
  int bound_port = 0;

  // Latched process-wide status, under its own lock.
  std::mutex status_mu;
  PlaneState state = PlaneState::kDisabled;
  std::string reason;
};

TelemetryState& State() {
  static TelemetryState* state = new TelemetryState;  // leaked; see trace.cc
  return *state;
}

void LatchUnavailable(const std::string& reason) {
  TelemetryState& state = State();
  std::lock_guard<std::mutex> lock(state.status_mu);
  state.state = PlaneState::kUnavailable;
  state.reason = reason;
}

std::string FormatSample(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

bool LegalExpositionName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (alpha || c == '_' || c == ':') continue;
    if (digit && i > 0) continue;
    return false;
  }
  return true;
}

// Refreshes the process-level gauges the exposition and /statusz read, so a
// scrape always sees current values even when the resource sampler thread is
// not running.
void UpdateProcessGauges() {
  static Gauge& uptime =
      MetricsRegistry::Instance().GetGauge("process.uptime_seconds");
  static Gauge& rss = MetricsRegistry::Instance().GetGauge("process.rss_bytes");
  static Gauge& peak =
      MetricsRegistry::Instance().GetGauge("process.peak_rss_bytes");
  uptime.Set(static_cast<double>(TraceNowNs()) * 1e-9);
  const ResourceUsage usage = ReadSelfResourceUsage();
  rss.Set(static_cast<double>(usage.rss_bytes));
  peak.Set(static_cast<double>(usage.peak_rss_bytes));
}

double GaugeOrZero(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out = "tg_";
  out.reserve(name.size() + 3);
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

Status CheckPrometheusExposition() {
  const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  std::map<std::string, std::string> seen;  // expanded name -> registry name
  auto claim = [&seen](const std::string& expanded,
                       const std::string& origin) -> Status {
    if (!LegalExpositionName(expanded)) {
      return Status::InvalidArgument("metric \"" + origin +
                                     "\" maps to illegal exposition name \"" +
                                     expanded + "\"");
    }
    auto [it, inserted] = seen.emplace(expanded, origin);
    if (!inserted) {
      return Status::InvalidArgument(
          "exposition name collision: \"" + expanded + "\" from \"" + origin +
          "\" and \"" + it->second + "\"");
    }
    return Status::OK();
  };
  for (const auto& [name, value] : snap.counters) {
    (void)value;
    TG_RETURN_IF_ERROR(claim(PrometheusName(name) + "_total", name));
  }
  for (const auto& [name, value] : snap.gauges) {
    (void)value;
    TG_RETURN_IF_ERROR(claim(PrometheusName(name), name));
  }
  for (const auto& [name, stats] : snap.histograms) {
    (void)stats;
    const std::string base = PrometheusName(name);
    TG_RETURN_IF_ERROR(claim(base + "_bucket", name));
    TG_RETURN_IF_ERROR(claim(base + "_sum", name));
    TG_RETURN_IF_ERROR(claim(base + "_count", name));
  }
  return Status::OK();
}

std::string RenderPrometheusText() {
  const MetricsSnapshot snap =
      MetricsRegistry::Instance().Snapshot(/*include_buckets=*/true);
  std::string out;
  out.reserve(snap.counters.size() * 64 + snap.gauges.size() * 64 +
              snap.histograms.size() * 1024);
  for (const auto& [name, value] : snap.counters) {
    const std::string family = PrometheusName(name) + "_total";
    out += "# TYPE " + family + " counter\n";
    out += family + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string family = PrometheusName(name);
    out += "# TYPE " + family + " gauge\n";
    out += family + " " + FormatSample(value) + "\n";
  }
  for (const auto& [name, stats] : snap.histograms) {
    const std::string family = PrometheusName(name);
    out += "# TYPE " + family + " histogram\n";
    // Cumulative series from the raw bucket reads; the final derived total
    // keeps _bucket{le="+Inf"} == _count even when the scrape races an
    // Observe() that has bumped a bucket but not yet the count field.
    uint64_t cumulative = 0;
    for (const auto& [upper, bucket_count] : stats.buckets) {
      cumulative += bucket_count;
      out += family + "_bucket{le=\"" + FormatSample(upper) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += family + "_sum " + FormatSample(stats.sum) + "\n";
    out += family + "_count " + std::to_string(cumulative) + "\n";
  }
  return out;
}

std::string RenderStatusz() {
  UpdateProcessGauges();
  const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const ResourceUsage usage = ReadSelfResourceUsage();

  std::string out = "{\"build_info\":" + BuildInfoJson();
  out += ",\"uptime_seconds\":" +
         JsonNumber(static_cast<double>(TraceNowNs()) * 1e-9, 6);

  out += ",\"telemetry\":{\"status\":" + JsonQuote(TelemetryStatusString());
  out += ",\"port\":" + std::to_string(TelemetryPort()) + "}";

  out += ",\"event_log\":{\"enabled\":";
  out += EventLogEnabled() ? "true" : "false";
  out += ",\"path\":" + JsonQuote(EventLogPath());
  out += ",\"emitted\":" + std::to_string(EventLogEmittedCount());
  out += ",\"dropped\":" + std::to_string(EventLogDroppedCount()) + "}";

  out += ",\"rss_bytes\":" + std::to_string(usage.rss_bytes);
  out += ",\"peak_rss_bytes\":" + std::to_string(usage.peak_rss_bytes);

  out += ",\"backends\":{\"numeric\":" +
         JsonQuote(kernels::ActiveBackendName()) + "}";

  // Sweep heartbeat gauges (core/pipeline.cc publishes these).
  const double total = GaugeOrZero(snap, "sweep.targets_total");
  const double done = GaugeOrZero(snap, "sweep.targets_done");
  out += ",\"sweep\":{\"targets_total\":" + JsonNumber(total, 0);
  out += ",\"targets_done\":" + JsonNumber(done, 0);
  out += ",\"targets_retried\":" +
         JsonNumber(GaugeOrZero(snap, "sweep.targets_retried"), 0);
  out += ",\"targets_degraded\":" +
         JsonNumber(GaugeOrZero(snap, "sweep.targets_degraded"), 0);
  out += ",\"targets_failed\":" +
         JsonNumber(GaugeOrZero(snap, "sweep.targets_failed"), 0);
  // Distributed-worker gauges (core/distributed_sweep.cc): this process's
  // claim/steal/reclaim activity against the shared workdir, plus janitor
  // work (the counter lives in snap.counters, not gauges).
  out += ",\"claims\":" + JsonNumber(GaugeOrZero(snap, "sweep.claims"), 0);
  out += ",\"steals\":" + JsonNumber(GaugeOrZero(snap, "sweep.steals"), 0);
  out += ",\"lease_expiries\":" +
         JsonNumber(GaugeOrZero(snap, "sweep.lease_expiries"), 0);
  {
    auto tmp = snap.counters.find("sweep.tmp_reclaimed");
    out += ",\"tmp_reclaimed\":" +
           std::to_string(tmp == snap.counters.end() ? 0 : tmp->second);
  }
  out += ",\"in_progress\":";
  out += (total > 0.0 && done < total) ? "true" : "false";
  out += "}";

  out += ",\"threads\":[";
  bool first = true;
  for (const ThreadOpenSpans& thread : AllThreadsOpenSpans()) {
    if (!first) out += ",";
    first = false;
    out += "{\"tid\":" + std::to_string(thread.tid);
    out += ",\"name\":" + JsonQuote(thread.thread_name);
    out += ",\"spans\":[";
    for (size_t i = 0; i < thread.spans.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonQuote(thread.spans[i]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Status StartTelemetry(int port) {
  TelemetryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.server != nullptr) {
    return Status::FailedPrecondition(
        "telemetry already running on port " +
        std::to_string(state.bound_port));
  }
  auto server = std::make_unique<HttpServer>();
  server->Handle("/metrics", [](const std::string&, const std::string&) {
    static Counter& scrapes =
        MetricsRegistry::Instance().GetCounter("telemetry.scrapes");
    scrapes.Increment();
    UpdateProcessGauges();
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheusText();
    return response;
  });
  server->Handle("/statusz", [](const std::string&, const std::string&) {
    HttpResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = RenderStatusz();
    return response;
  });
  server->Handle("/healthz", [](const std::string&, const std::string&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  // Serve the sweep heartbeat gauges from the first scrape, at 0 until a
  // sweep publishes them (the values /statusz already reports): a client
  // polling a sweep that is still building its zoo must see "0 done", not a
  // missing series.
  for (const char* name :
       {"sweep.targets_total", "sweep.targets_done", "sweep.targets_retried",
        "sweep.targets_degraded", "sweep.targets_failed"}) {
    MetricsRegistry::Instance().GetGauge(name);
  }
  server->set_error_callback([](const Status& error) {
    LatchUnavailable(error.ToString());
    std::fprintf(stderr, "telemetry serve loop down: %s\n",
                 error.ToString().c_str());
  });
  Status started = server->Start(port);
  if (!started.ok()) {
    LatchUnavailable(started.ToString());
    return started;
  }
  state.server = std::move(server);
  state.bound_port = state.server->bound_port();
  {
    std::lock_guard<std::mutex> status_lock(state.status_mu);
    state.state = PlaneState::kOk;
    state.reason.clear();
  }
  // The endpoints are only useful with instruments feeding; metrics share
  // the write-only / bit-identical contract, so flipping them on here never
  // changes pipeline outputs.
  SetMetricsEnabled(true);
  SetTelemetrySpansEnabled(true);
  return Status::OK();
}

void StopTelemetry() {
  TelemetryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.server == nullptr) return;
  SetTelemetrySpansEnabled(false);
  state.server->Stop();
  state.server.reset();
  state.bound_port = 0;
  std::lock_guard<std::mutex> status_lock(state.status_mu);
  // A latched failure (accept fault killed the loop) survives Stop so the
  // run's artifacts still say the plane was unavailable.
  if (state.state == PlaneState::kOk) state.state = PlaneState::kDisabled;
}

bool TelemetryRunning() {
  TelemetryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.server != nullptr && state.server->running();
}

int TelemetryPort() {
  TelemetryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.server != nullptr ? state.bound_port : 0;
}

std::string TelemetryStatusString() {
  TelemetryState& state = State();
  std::lock_guard<std::mutex> lock(state.status_mu);
  switch (state.state) {
    case PlaneState::kDisabled:
      return "disabled";
    case PlaneState::kOk:
      return "ok";
    case PlaneState::kUnavailable:
      return "unavailable (" + state.reason + ")";
  }
  return "disabled";
}

bool MaybeStartTelemetryFromEnv() {
  if (TelemetryRunning()) return true;
  const char* value = std::getenv("TG_TELEMETRY_PORT");
  if (value == nullptr || *value == '\0') return false;
  uint64_t port = 0;
  if (!ParseUint64(value, &port) || port > 65535) {
    // A set knob never silently falls back (the TG_THREADS policy); only a
    // failed bind below degrades to running without telemetry.
    std::fprintf(stderr,
                 "TG_TELEMETRY_PORT=%s: expected a port in [0, 65535]\n",
                 value);
    std::exit(1);
  }
  Status started = StartTelemetry(static_cast<int>(port));
  if (!started.ok()) {
    std::fprintf(stderr, "telemetry unavailable: %s\n",
                 started.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "telemetry: listening on 127.0.0.1:%d\n",
               TelemetryPort());
  return true;
}

}  // namespace tg::obs
