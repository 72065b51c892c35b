// Live telemetry plane: an embedded HTTP scrape endpoint over the metrics
// registry, span stacks, and sweep progress, served from a background thread
// (util/http_server.h) bound to 127.0.0.1.
//
// Endpoints:
//   /metrics  Prometheus text exposition (version 0.0.4): every registry
//             counter, gauge, and histogram, the latter with full cumulative
//             _bucket/_sum/_count series.
//   /statusz  One JSON object: build_info, uptime, telemetry/event-log
//             state, RSS, active numeric + tree backends, sweep progress
//             (done/total/retried/degraded/failed), and the open span stack
//             of every thread.
//   /healthz  "ok\n" -- liveness only.
//
// Name mapping (/metrics): a registry name maps to `tg_` + the name with
// every character outside [A-Za-z0-9] replaced by `_`; counters additionally
// get the `_total` suffix, histograms expand to `_bucket`/`_sum`/`_count`
// series. The scheme is audited -- CheckPrometheusExposition() verifies every
// expanded name is a legal Prometheus identifier and that no two registry
// names collide after mapping (tests/obs_telemetry_test.cc runs it against
// the fully-populated registry).
//
// Degradation: a failed bind (occupied port, injected "telemetry_bind"
// fault) or a poisoned accept ("telemetry_accept") never takes the process
// down. The failure latches a process-wide "unavailable (<reason>)" status
// that TelemetryStatusString() reports and build_info JSON embeds, so every
// bench_timings.json records whether its run was scrapeable.
//
// Cost model: starting the plane flips the telemetry span bit (open-span
// names become cross-thread readable) and enables metrics; when the plane is
// off the whole feature costs the same single relaxed mode-word load as
// every other obs substrate. Telemetry is write-only -- scraping never
// perturbs pipeline outputs (bit-identical, tested).
#ifndef TG_OBS_TELEMETRY_H_
#define TG_OBS_TELEMETRY_H_

#include <string>

#include "util/status.h"

namespace tg::obs {

// Binds 127.0.0.1:`port` (0 = kernel-assigned; read back via
// TelemetryPort()) and starts serving. Also turns on metrics and telemetry
// span publication so the endpoints have something to show. On failure the
// process-wide status latches "unavailable (<reason>)" and the error is
// returned -- callers log and continue, never crash.
Status StartTelemetry(int port);

// Stops the server and span publication. Keeps a latched "unavailable"
// status (a failure stays visible in artifacts produced after the fact).
void StopTelemetry();

bool TelemetryRunning();

// The bound port while running (resolves port 0), else 0.
int TelemetryPort();

// Starts from TG_TELEMETRY_PORT when set and non-empty; logs the bound
// address on success and a warning when the bind fails. A value that is not
// a port in [0, 65535] exits 1 naming it. Returns true iff running.
bool MaybeStartTelemetryFromEnv();

// "disabled" | "ok" | "unavailable (<reason>)". Embedded in BuildInfoJson()
// and /statusz.
std::string TelemetryStatusString();

// --- Rendering (exposed for tests; the endpoints call these) ----------------

// Prometheus text exposition of the whole registry. The _count of each
// histogram is derived from its bucket reads (not the separate count field)
// so the cumulative series is internally consistent even when the scrape
// races an Observe().
std::string RenderPrometheusText();

// The /statusz JSON object.
std::string RenderStatusz();

// --- Name mapping ------------------------------------------------------------

// Base mapping: "tg_" + name with non-[A-Za-z0-9] replaced by '_'. Type
// suffixes (_total, _bucket, ...) are applied on top by the renderer.
std::string PrometheusName(const std::string& name);

// Registry-wide audit: every expanded exposition name is legal
// ([a-zA-Z_:][a-zA-Z0-9_:]*) and unique across instruments. InvalidArgument
// naming the offending instruments otherwise.
Status CheckPrometheusExposition();

}  // namespace tg::obs

#endif  // TG_OBS_TELEMETRY_H_
