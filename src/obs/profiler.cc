#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>
#include <set>
#include <vector>

#include "obs/thread_log.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/env.h"
#include "util/json_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#if defined(__linux__)
#include <dlfcn.h>
#include <pthread.h>
#include <ucontext.h>
#include <cxxabi.h>
#endif

namespace tg::obs {
namespace {

constexpr size_t kMaxSpanDepth = 8;
constexpr size_t kMaxFrames = 24;
// Ring capacity per thread: ~42s of samples at the default 97 Hz before a
// drain is needed; a full ring drops (and counts) rather than overwrites,
// so the drain side never races a writer on the same slot.
constexpr size_t kRingCapacity = 4096;

// One sample, written entirely inside the signal handler. Span names are
// static-storage string pointers captured from the open-span chain
// (innermost first); PCs come from the frame-pointer walk (innermost
// first, pcs[0] = interrupted instruction).
struct RawSample {
  uint64_t t_ns = 0;
  uint64_t span_id = 0;
  uint32_t num_names = 0;
  uint32_t num_pcs = 0;
  const char* names[kMaxSpanDepth];
  uintptr_t pcs[kMaxFrames];
};

// Lock-free SPSC ring: the owning thread's signal handler publishes with a
// release store of `published`; the drain thread consumes with an acquire
// load and advances `consumed` with a release store the handler reads with
// an acquire load before reusing a slot.
struct ThreadSampleBuffer {
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> consumed{0};
  uintptr_t stack_lo = 0;  // pthread stack bounds for FP-walk validation;
  uintptr_t stack_hi = 0;  // 0 = unknown, PC-only samples
  RawSample slots[kRingCapacity];
};

// Raw pointer read by the signal handler to the ring in this thread's
// ObsThread slot, which outlives the thread. Signals on this thread are
// sequenced with these writes, so a plain store plus a signal fence
// suffices.
thread_local ThreadSampleBuffer* t_buffer_raw = nullptr;

std::atomic<bool> g_running{false};
std::atomic<uint64_t> g_dropped{0};
std::mutex g_lifecycle_mu;
int g_hz = 0;  // guarded by g_lifecycle_mu for writes; reports read racily
#if defined(__linux__)
timer_t g_timer;
bool g_handler_installed = false;  // guarded by g_lifecycle_mu
#endif

// --- Signal handler ---------------------------------------------------------

#if defined(__linux__)

// Frame-pointer chain walk, validated so a garbage RBP (the default -O2
// build omits frame pointers) terminates cleanly instead of faulting:
// every candidate frame must lie inside the thread's stack, be
// pointer-aligned, and move monotonically toward the stack base.
size_t CaptureBacktrace(void* uc_void, const ThreadSampleBuffer* buf,
                        uintptr_t* pcs, size_t max) {
  if (uc_void == nullptr) return 0;
  const ucontext_t* uc = static_cast<const ucontext_t*>(uc_void);
  uintptr_t pc = 0;
  uintptr_t fp = 0;
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  return 0;
#endif
  size_t n = 0;
  if (pc != 0 && n < max) pcs[n++] = pc;
  if (buf->stack_lo == 0 || buf->stack_hi == 0) return n;
  while (n < max && fp >= buf->stack_lo &&
         fp + 2 * sizeof(uintptr_t) <= buf->stack_hi &&
         fp % sizeof(uintptr_t) == 0) {
    const uintptr_t next_fp = *reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t ret =
        *reinterpret_cast<const uintptr_t*>(fp + sizeof(uintptr_t));
    if (ret == 0) break;
    pcs[n++] = ret;
    if (next_fp <= fp) break;
    fp = next_fp;
  }
  return n;
}

// Async-signal-safe by construction: thread-local memory allocated
// off-signal, relaxed/acquire/release atomics, the (primed) trace clock,
// and ucontext register reads. No allocation, no locks, no stdio.
void SigprofHandler(int /*signo*/, siginfo_t* /*info*/, void* uc_void) {
  const int saved_errno = errno;
  if (g_running.load(std::memory_order_relaxed)) {
    ThreadSampleBuffer* buf = t_buffer_raw;
    if (buf == nullptr) {
      // Thread never opened a span since profiling started: no buffer was
      // allocated off-signal, so the sample is dropped, not taken unsafely.
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      const uint64_t w = buf->published.load(std::memory_order_relaxed);
      if (w - buf->consumed.load(std::memory_order_acquire) >=
          kRingCapacity) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        RawSample& s = buf->slots[w % kRingCapacity];
        s.t_ns = TraceNowNs();
        s.span_id = CurrentSpanId();
        s.num_names = static_cast<uint32_t>(
            OpenSpanNamesForSignal(s.names, kMaxSpanDepth));
        s.num_pcs =
            static_cast<uint32_t>(CaptureBacktrace(uc_void, buf, s.pcs,
                                                   kMaxFrames));
        buf->published.store(w + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

#endif  // __linux__

// --- Aggregates (off-signal) ------------------------------------------------

struct SymbolStat {
  uint64_t self = 0;
  uint64_t total = 0;
};

struct ProfileAggregates {
  std::mutex mu;
  uint64_t samples = 0;
  std::map<std::string, uint64_t> stacks;       // collapsed key -> count
  std::map<std::string, uint64_t> span_counts;  // innermost span name
  std::map<uint64_t, uint64_t> span_id_counts;
  std::map<std::string, SymbolStat> symbols;
  std::map<uintptr_t, std::string> symbol_cache;
  std::vector<uint64_t> sample_times_ns;
};

ProfileAggregates& Aggregates() {
  static ProfileAggregates* agg = new ProfileAggregates;
  return *agg;
}

std::string SymbolizePc(uintptr_t pc, bool is_return_address,
                        std::map<uintptr_t, std::string>* cache) {
  const auto it = cache->find(pc);
  if (it != cache->end()) return it->second;
  std::string name;
#if defined(__linux__)
  // Return addresses point just past the call; back up one byte so the
  // lookup lands inside the calling function, not whatever follows it.
  const uintptr_t lookup = is_return_address && pc != 0 ? pc - 1 : pc;
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
      info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  }
#else
  (void)is_return_address;
#endif
  if (name.empty()) {
    char hex[2 + 2 * sizeof(uintptr_t) + 1];
    std::snprintf(hex, sizeof(hex), "0x%zx", static_cast<size_t>(pc));
    name = hex;
  }
  // Collapsed-stack separators must not appear inside a frame name.
  std::replace(name.begin(), name.end(), ';', ',');
  (*cache)[pc] = name;
  return name;
}

void AggregateSample(const RawSample& s, ProfileAggregates* agg) {
  agg->samples += 1;
  agg->sample_times_ns.push_back(s.t_ns);
  const char* innermost =
      s.num_names > 0 ? s.names[0] : "(no span)";
  agg->span_counts[innermost] += 1;
  if (s.span_id != 0) agg->span_id_counts[s.span_id] += 1;

  // Collapsed key, root first: outermost span .. innermost span, then
  // outermost frame .. the interrupted PC.
  std::string key;
  for (size_t i = s.num_names; i > 0; --i) {
    if (!key.empty()) key += ';';
    key += s.names[i - 1];
  }
  std::vector<std::string> frame_names;
  frame_names.reserve(s.num_pcs);
  for (size_t i = 0; i < s.num_pcs; ++i) {
    frame_names.push_back(
        SymbolizePc(s.pcs[i], /*is_return_address=*/i > 0,
                    &agg->symbol_cache));
  }
  for (size_t i = frame_names.size(); i > 0; --i) {
    if (!key.empty()) key += ';';
    key += frame_names[i - 1];
  }
  if (key.empty()) key = "(unattributed)";
  agg->stacks[key] += 1;

  // Per-symbol: self = leaf frame only, total = once per sample for every
  // symbol present anywhere in the stack (recursion counts once).
  if (!frame_names.empty()) {
    agg->symbols[frame_names[0]].self += 1;
  } else {
    // No walkable frames: attribute self time to the innermost span so the
    // report stays meaningful under -fomit-frame-pointer.
    agg->symbols[std::string("span:") + innermost].self += 1;
    agg->symbols[std::string("span:") + innermost].total += 1;
  }
  const std::set<std::string> unique(frame_names.begin(), frame_names.end());
  for (const std::string& sym : unique) {
    agg->symbols[sym].total += 1;
  }
}

// Consumes every thread's published samples, aggregating them into `agg`
// (or discarding them when it is null).
void DrainInto(ProfileAggregates* agg) {
  ForEachObsThread([agg](ObsThread& thread) {
    ThreadSampleBuffer* buf =
        thread.Find<ThreadSampleBuffer>(ThreadSlot::kSamples);
    if (buf == nullptr) return;
    const uint64_t published = buf->published.load(std::memory_order_acquire);
    const uint64_t consumed = buf->consumed.load(std::memory_order_relaxed);
    if (agg != nullptr) {
      for (uint64_t i = consumed; i < published; ++i) {
        AggregateSample(buf->slots[i % kRingCapacity], agg);
      }
    }
    buf->consumed.store(published, std::memory_order_release);
  });
}

}  // namespace

int ProfilerDefaultHz() {
  return static_cast<int>(
      EnvUint64InRange("TG_PROFILE_HZ", 1, 10000,
                       "expected an integer in [1, 10000]")
          .value_or(97));
}

bool ProfilerRunning() { return g_running.load(std::memory_order_relaxed); }

int ProfilerHz() { return g_hz; }

void ProfilerEnsureThreadRegistered() {
  if (t_buffer_raw != nullptr) return;
  if (!g_running.load(std::memory_order_relaxed)) return;
  ThreadSampleBuffer& fresh =
      CurrentObsThread().GetOrCreate<ThreadSampleBuffer>(ThreadSlot::kSamples);
#if defined(__linux__)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      fresh.stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
      fresh.stack_hi = fresh.stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
  // Publish to the signal handler last; the fence keeps the buffer's
  // initialization from sinking below the pointer store.
  std::atomic_signal_fence(std::memory_order_release);
  t_buffer_raw = &fresh;
}

Status StartProfiler(int hz) {
#if !defined(__linux__)
  (void)hz;
  return Status::FailedPrecondition(
      "sampling profiler requires Linux (timer_create/SIGPROF)");
#else
  // Resolved before taking the lock: a malformed TG_PROFILE_HZ exits.
  if (hz == 0) hz = ProfilerDefaultHz();
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (g_running.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (hz < 1 || hz > 10000) {
    return Status::InvalidArgument("profile rate out of range [1,10000]: " +
                                   std::to_string(hz));
  }
  (void)TraceNowNs();  // prime the trace epoch off-signal
  if (!g_handler_installed) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = &SigprofHandler;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      return Status::Internal(std::string("sigaction(SIGPROF): ") +
                              std::strerror(errno));
    }
    g_handler_installed = true;
  }
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &g_timer) != 0) {
    return Status::Internal(std::string("timer_create: ") +
                            std::strerror(errno));
  }
  g_hz = hz;
  g_running.store(true, std::memory_order_relaxed);
  SetProfilerSpansEnabled(true);
  ProfilerEnsureThreadRegistered();
  const long period_ns = 1000000000L / hz;
  struct itimerspec spec;
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    const Status status = Status::Internal(std::string("timer_settime: ") +
                                           std::strerror(errno));
    g_running.store(false, std::memory_order_relaxed);
    SetProfilerSpansEnabled(false);
    timer_delete(g_timer);
    return status;
  }
  return Status::OK();
#endif
}

Status StopProfiler() {
#if !defined(__linux__)
  return Status::OK();
#else
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (!g_running.load(std::memory_order_relaxed)) return Status::OK();
  struct itimerspec zero;
  std::memset(&zero, 0, sizeof(zero));
  timer_settime(g_timer, 0, &zero, nullptr);
  timer_delete(g_timer);
  // The handler stays installed: a SIGPROF already in flight when the timer
  // was disarmed would otherwise hit the default disposition (terminate).
  // g_running gates it to a no-op instead.
  g_running.store(false, std::memory_order_relaxed);
  SetProfilerSpansEnabled(false);
  ProfilerDrain();
  return Status::OK();
#endif
}

void ProfilerDrain() {
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  DrainInto(&agg);
}

uint64_t ProfilerSampleCount() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  return agg.samples;
}

uint64_t ProfilerDroppedSampleCount() {
  return g_dropped.load(std::memory_order_relaxed);
}

void ResetProfile() {
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  DrainInto(nullptr);  // discard unconsumed samples
  agg.samples = 0;
  agg.stacks.clear();
  agg.span_counts.clear();
  agg.span_id_counts.clear();
  agg.symbols.clear();
  agg.sample_times_ns.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::string CollapsedStacks() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  std::string out;
  for (const auto& [key, count] : agg.stacks) {
    out += key;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

Status WriteCollapsedStacks(const std::string& path) {
  return WriteFileAtomic(path, CollapsedStacks());
}

std::string ProfileReportTable(size_t top_n) {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  if (agg.symbols.empty()) return "";
  std::vector<std::pair<std::string, SymbolStat>> rows(agg.symbols.begin(),
                                                       agg.symbols.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    if (a.second.total != b.second.total) {
      return a.second.total > b.second.total;
    }
    return a.first < b.first;
  });
  if (rows.size() > top_n) rows.resize(top_n);
  TablePrinter table({"symbol", "self", "total", "self%"});
  const double denom = agg.samples > 0 ? static_cast<double>(agg.samples) : 1;
  for (const auto& [symbol, stat] : rows) {
    table.AddRow({symbol, std::to_string(stat.self),
                  std::to_string(stat.total),
                  FormatDouble(100.0 * static_cast<double>(stat.self) / denom,
                               1)});
  }
  return table.Render();
}

std::map<std::string, uint64_t> SpanProfileSampleCounts() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  return agg.span_counts;
}

std::map<uint64_t, uint64_t> SpanIdProfileSampleCounts() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  return agg.span_id_counts;
}

std::string ProfilerCounterEventsJson() {
  ProfilerDrain();
  ProfileAggregates& agg = Aggregates();
  std::lock_guard<std::mutex> lock(agg.mu);
  if (agg.sample_times_ns.empty()) return "";
  std::vector<uint64_t> times = agg.sample_times_ns;
  std::sort(times.begin(), times.end());
  // Cumulative sample count on the shared trace clock; strided so a long
  // run emits at most ~200 counter events.
  const size_t stride = std::max<size_t>(1, times.size() / 200);
  std::string out;
  bool first = true;
  for (size_t i = 0; i < times.size(); ++i) {
    if (i % stride != 0 && i + 1 != times.size()) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"C\",\"pid\":1,\"name\":\"profiler_samples\",\"ts\":" +
           JsonNumber(static_cast<double>(times[i]) / 1e3, 15) +
           ",\"args\":{\"samples\":" + std::to_string(i + 1) + "}}";
  }
  return out;
}

std::string ProfileSummaryJson() {
  const uint64_t samples = ProfilerSampleCount();
  return "{\"hz\":" + std::to_string(g_hz) +
         ",\"samples\":" + std::to_string(samples) +
         ",\"dropped\":" + std::to_string(ProfilerDroppedSampleCount()) + "}";
}

}  // namespace tg::obs
