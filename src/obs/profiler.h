// Timer-based sampling CPU profiler: a POSIX CPU-time timer delivers
// SIGPROF at a configurable rate (default ~97 Hz -- prime, so it cannot
// phase-lock with millisecond-periodic work); the async-signal-safe handler
// captures a frame-pointer backtrace plus the open-span name chain into a
// bounded lock-free per-thread ring (held by the thread's obs registry
// entry, obs/thread_log.h), which is drained off-signal into per-span and
// per-symbol aggregates, a collapsed-stack dump (flamegraph.pl /
// speedscope-ready), and a top-N self/total table.
//
// Signal-safety: the handler touches only thread-local memory that was
// allocated off-signal, relaxed/release atomics, the trace clock, and the
// ucontext registers. It never allocates, locks, or calls into the C
// library beyond clock_gettime. Threads that have not yet registered a
// buffer (no span opened since profiling started) drop their samples into
// a counter instead of sampling unsafely.
//
// Attribution: every sample records the open-span *name* chain (static
// string pointers, safe to read from the handler) in addition to raw PCs,
// so samples attribute to pipeline stages even when -fomit-frame-pointer
// leaves the PC walk with a single frame. Collapsed stacks are rooted at
// the span chain: `walk_corpus;skipgram_train;SymbolA;SymbolB 42`.
//
// Cost model: when the profiler is stopped (the default) the per-span hook
// is covered by the same single relaxed mode-word load that gates tracing;
// there is no timer, no signal handler, and no buffer memory.
//
// Determinism contract: sampling observes execution, never steers it --
// SA_RESTART keeps syscalls transparent and nothing numeric reads profiler
// state -- so pipeline outputs are bit-identical with profiling on or off
// (tests/obs_profiler_test.cc).
//
// Enabling: StartProfiler()/StopProfiler() at runtime or `tg_cli
// --profile[=HZ]`; TG_PROFILE_HZ overrides the default rate.
#ifndef TG_OBS_PROFILER_H_
#define TG_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace tg::obs {

// Sampling rate used when StartProfiler(0) is called: TG_PROFILE_HZ when
// set and non-empty, else 97. A TG_PROFILE_HZ that is not a decimal integer
// in [1, 10000] exits 1 with a message naming the value.
int ProfilerDefaultHz();

// Starts the SIGPROF sampling timer at `hz` samples/sec of process CPU
// time (0 = ProfilerDefaultHz()). Also enables span bookkeeping
// (SetProfilerSpansEnabled) so samples can attribute to spans. Fails if
// already running or if the timer cannot be created.
Status StartProfiler(int hz = 0);

// Disarms and deletes the timer and drains every thread's buffer into the
// aggregates. The SIGPROF handler stays installed but inert (restoring the
// default disposition could terminate the process on a signal already in
// flight when the timer was disarmed). Idempotent.
Status StopProfiler();

bool ProfilerRunning();

// The rate passed to StartProfiler for the current/last run (0 = never ran).
int ProfilerHz();

// Registers the calling thread's sample ring buffer (allocating it
// off-signal). Called by obs::Span construction while profiling is active,
// so any thread that opens a span becomes sampleable; cheap no-op when
// already registered or when profiling is off.
void ProfilerEnsureThreadRegistered();

// Drains published-but-unconsumed samples from every registered thread
// into the aggregates. Called by StopProfiler and by every report getter;
// call it periodically in very long runs to keep ring buffers from
// saturating (a saturated ring drops samples and counts the drops).
void ProfilerDrain();

// Samples aggregated so far (post-drain) / samples dropped because a
// thread had no buffer or a full ring.
uint64_t ProfilerSampleCount();
uint64_t ProfilerDroppedSampleCount();

// Clears aggregates and counts (tests/benches sectioning one process run).
// Must not be called while the profiler is running.
void ResetProfile();

// Collapsed-stack text: one "frame;frame;...;leaf count" line per unique
// stack, rooted at the span-name chain, newline-terminated. Feed to
// flamegraph.pl or speedscope. Empty string when no samples.
std::string CollapsedStacks();

// CollapsedStacks() written atomically to `path`.
Status WriteCollapsedStacks(const std::string& path);

// Aligned table of the hottest symbols: self samples (leaf frames), total
// samples (anywhere in the stack), and self%. `top_n` rows, hottest first.
std::string ProfileReportTable(size_t top_n = 20);

// Sample counts keyed by innermost open span name at sample time; samples
// taken outside any span land under "(no span)".
std::map<std::string, uint64_t> SpanProfileSampleCounts();

// Sample counts keyed by innermost open span *id* -- consumed by the
// Chrome-trace exporter to stamp "profile_samples" onto span args.
std::map<uint64_t, uint64_t> SpanIdProfileSampleCounts();

// Chrome-trace "ph":"C" counter events (one "profiler_samples" track of
// cumulative sample count on the TraceNowNs clock, so the track lines up
// with span rows). Comma-separated event objects, no brackets; empty when
// no samples. Spliced into ChromeTraceJson next to the RSS track.
std::string ProfilerCounterEventsJson();

// {"hz":97,"samples":N,"dropped":M} -- stamped into bench_timings.json.
std::string ProfileSummaryJson();

}  // namespace tg::obs

#endif  // TG_OBS_PROFILER_H_
