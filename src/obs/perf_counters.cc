#include "obs/perf_counters.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/json_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace tg::obs {
namespace {

std::atomic<bool> g_perf_enabled{false};

// Availability is a process-wide latch: 0 = not probed, 1 = available,
// 2 = unavailable. The first failed open wins and records the reason; a
// container that denies perf_event_open denies it for every thread, so one
// probe is representative.
std::atomic<int> g_availability{0};
std::mutex g_reason_mu;
std::string& UnavailableReason() {
  static std::string* reason = new std::string;
  return *reason;
}

void LatchUnavailable(const std::string& reason) {
  int expected = 0;
  if (g_availability.compare_exchange_strong(expected, 2,
                                             std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(g_reason_mu);
    UnavailableReason() = reason;
  }
}

[[maybe_unused]] const bool g_env_seeded = [] {
  if (EnvFlag("TG_PERF_COUNTERS")) {
    g_perf_enabled.store(true, std::memory_order_relaxed);
  }
  return true;
}();

// --- Per-thread counter group ----------------------------------------------

#if defined(__linux__)

constexpr size_t kNumEvents = 5;

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

// Slot order matches PerfCounterValues field order.
constexpr EventSpec kEvents[kNumEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};

long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

// One thread's open counter group. The leader (cycles) must open; the other
// events are best-effort -- a PMU that lacks, say, cache-references simply
// reports zero for it. Group reads return the opened members in open order,
// so `slot_of[i]` remembers which PerfCounterValues field member i feeds.
struct ThreadPerfGroup {
  int leader_fd = -1;
  size_t num_open = 0;
  size_t slot_of[kNumEvents] = {0};
  bool open_attempted = false;

  ~ThreadPerfGroup() { Close(); }

  void Close() {
    // The leader fd owns the group; member fds were opened with the
    // group-leader flag and are tracked for individual close.
    for (size_t i = 0; i < num_open; ++i) {
      if (fds[i] >= 0) close(fds[i]);
    }
    num_open = 0;
    leader_fd = -1;
  }

  int fds[kNumEvents] = {-1, -1, -1, -1, -1};

  bool Open() {
    open_attempted = true;
    // Deterministic degradation hook: TG_FAULT=perf_open=always exercises
    // the counters-unavailable path on machines where perf works.
    if (TG_FAULT_POINT("perf_open")) {
      LatchUnavailable("injected fault at perf_open");
      return false;
    }
    if (g_availability.load(std::memory_order_relaxed) == 2) return false;
    for (size_t i = 0; i < kNumEvents; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.size = sizeof(attr);
      attr.type = kEvents[i].type;
      attr.config = kEvents[i].config;
      attr.disabled = (i == 0) ? 1 : 0;  // leader starts the group
      attr.exclude_kernel = 1;  // user-space only: works at paranoid <= 2
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                         PERF_FORMAT_TOTAL_TIME_RUNNING;
      const int group = (i == 0) ? -1 : leader_fd;
      const long fd = PerfEventOpen(&attr, 0 /* this thread */, -1, group, 0);
      if (fd < 0) {
        if (i == 0) {
          std::string reason = std::string("perf_event_open(cycles): ") +
                               std::strerror(errno);
          if (errno == EACCES || errno == EPERM) {
            reason += " (check /proc/sys/kernel/perf_event_paranoid, or the "
                      "container's seccomp policy)";
          }
          LatchUnavailable(reason);
          return false;
        }
        continue;  // optional member missing on this PMU
      }
      if (i == 0) leader_fd = static_cast<int>(fd);
      slot_of[num_open] = i;
      fds[num_open] = static_cast<int>(fd);
      ++num_open;
    }
    // The leader was created disabled so members could attach before any
    // counting starts; enable the whole group atomically now.
    if (ioctl(leader_fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
      LatchUnavailable(std::string("PERF_EVENT_IOC_ENABLE: ") +
                       std::strerror(errno));
      Close();
      return false;
    }
    g_availability.store(1, std::memory_order_relaxed);
    return true;
  }

  bool Read(PerfCounterValues* out) const {
    if (leader_fd < 0) return false;
    // read_format layout: nr, time_enabled, time_running, value[nr].
    uint64_t buffer[3 + kNumEvents];
    const ssize_t n = read(leader_fd, buffer, sizeof(buffer));
    if (n < static_cast<ssize_t>(3 * sizeof(uint64_t))) return false;
    const uint64_t nr = buffer[0];
    const uint64_t enabled = buffer[1];
    const uint64_t running = buffer[2];
    // Multiplexing correction: when the PMU rotated this group off-core,
    // scale observed counts by enabled/running (the standard estimator).
    const double scale =
        (running > 0 && running < enabled)
            ? static_cast<double>(enabled) / static_cast<double>(running)
            : 1.0;
    uint64_t values[kNumEvents] = {0};
    for (uint64_t i = 0; i < nr && i < num_open; ++i) {
      values[slot_of[i]] =
          static_cast<uint64_t>(static_cast<double>(buffer[3 + i]) * scale);
    }
    out->cycles = values[0];
    out->instructions = values[1];
    out->cache_references = values[2];
    out->cache_misses = values[3];
    out->branch_misses = values[4];
    out->ok = true;
    return true;
  }
};

thread_local ThreadPerfGroup t_perf_group;

PerfCounterValues ReadThisThread() {
  PerfCounterValues values;
  if (!t_perf_group.open_attempted) {
    if (!t_perf_group.Open()) return values;
  }
  if (!t_perf_group.Read(&values)) values = PerfCounterValues{};
  return values;
}

#else  // !__linux__

PerfCounterValues ReadThisThread() {
  LatchUnavailable("perf_event_open is Linux-only");
  return PerfCounterValues{};
}

#endif

// --- Per-stage aggregates ---------------------------------------------------

struct StagePerfRegistry {
  std::mutex mu;
  std::map<std::string, StagePerfTotals> totals;
};

StagePerfRegistry& StageRegistry() {
  static StagePerfRegistry* registry = new StagePerfRegistry;
  return *registry;
}

}  // namespace

void SetPerfCountersEnabled(bool enabled) {
  g_perf_enabled.store(enabled, std::memory_order_relaxed);
}

bool PerfCountersEnabled() {
  return g_perf_enabled.load(std::memory_order_relaxed);
}

PerfCounterValues ThreadPerfCounters() {
  if (!g_perf_enabled.load(std::memory_order_relaxed)) {
    return PerfCounterValues{};
  }
  return ReadThisThread();
}

bool PerfCountersAvailable() {
  if (g_availability.load(std::memory_order_relaxed) == 0 &&
      PerfCountersEnabled()) {
    (void)ReadThisThread();  // probe on the calling thread
  }
  return g_availability.load(std::memory_order_relaxed) == 1;
}

std::string PerfCountersUnavailableReason() {
  if (g_availability.load(std::memory_order_relaxed) != 2) return "";
  std::lock_guard<std::mutex> lock(g_reason_mu);
  return UnavailableReason();
}

const char* PerfCountersStatusString() {
  if (!PerfCountersEnabled()) return "disabled";
  return PerfCountersAvailable() ? "ok" : "unavailable";
}

std::string PerfCountersStatusJson() {
  const char* status = PerfCountersStatusString();
  std::string out = "{\"status\":" + JsonQuote(status);
  if (std::strcmp(status, "unavailable") == 0) {
    out += ",\"reason\":" + JsonQuote(PerfCountersUnavailableReason());
  }
  out += "}";
  return out;
}

PerfCounterScope::PerfCounterScope(const char* name)
    : name_(name), start_(ThreadPerfCounters()) {}

PerfCounterScope::~PerfCounterScope() {
  const PerfCounterValues delta = Delta();
  if (delta.ok) AccumulateStageCounters(name_, delta);
}

PerfCounterValues PerfCounterScope::Delta() const {
  if (!start_.ok) return PerfCounterValues{};
  return ThreadPerfCounters() - start_;
}

void AccumulateStageCounters(const char* name,
                             const PerfCounterValues& delta) {
  if (!delta.ok) return;
  StagePerfTotals snapshot;
  {
    StagePerfRegistry& registry = StageRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    StagePerfTotals& totals = registry.totals[name];
    totals.cycles += delta.cycles;
    totals.instructions += delta.instructions;
    totals.cache_references += delta.cache_references;
    totals.cache_misses += delta.cache_misses;
    totals.branch_misses += delta.branch_misses;
    totals.spans += 1;
    snapshot = totals;
  }
  // Derived per-stage rates land in the registry (and through it in
  // bench_timings.json "metrics"): last-write-wins gauges refreshed from
  // the running totals, so the final value reflects the whole run.
  MetricsRegistry::Instance()
      .GetGauge(std::string("stage.") + name + ".ipc")
      .Set(snapshot.Ipc());
  MetricsRegistry::Instance()
      .GetGauge(std::string("stage.") + name + ".cache_miss_rate")
      .Set(snapshot.CacheMissRate());
}

std::map<std::string, StagePerfTotals> StagePerfSnapshot() {
  StagePerfRegistry& registry = StageRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.totals;
}

void ResetStagePerf() {
  StagePerfRegistry& registry = StageRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.totals.clear();
}

std::string StagePerfCountersJson() {
  const std::map<std::string, StagePerfTotals> totals = StagePerfSnapshot();
  std::string out = "[";
  bool first = true;
  for (const auto& [stage, t] : totals) {
    if (!first) out += ",";
    first = false;
    out += "{\"stage\":" + JsonQuote(stage);
    out += ",\"cycles\":" + std::to_string(t.cycles);
    out += ",\"instructions\":" + std::to_string(t.instructions);
    out += ",\"cache_references\":" + std::to_string(t.cache_references);
    out += ",\"cache_misses\":" + std::to_string(t.cache_misses);
    out += ",\"branch_misses\":" + std::to_string(t.branch_misses);
    out += ",\"spans\":" + std::to_string(t.spans);
    out += ",\"ipc\":" + JsonNumber(t.Ipc(), 6);
    out += ",\"cache_miss_rate\":" + JsonNumber(t.CacheMissRate(), 6);
    out += "}";
  }
  out += "]";
  return out;
}

std::string StagePerfTable() {
  const std::map<std::string, StagePerfTotals> totals = StagePerfSnapshot();
  if (totals.empty()) return "";
  TablePrinter table({"stage", "spans", "cycles", "instructions", "IPC",
                      "cache miss %", "branch misses"});
  for (const auto& [stage, t] : totals) {
    table.AddRow({stage, std::to_string(t.spans), std::to_string(t.cycles),
                  std::to_string(t.instructions), FormatDouble(t.Ipc(), 2),
                  FormatDouble(t.CacheMissRate() * 100.0, 2),
                  std::to_string(t.branch_misses)});
  }
  return table.Render();
}

}  // namespace tg::obs
