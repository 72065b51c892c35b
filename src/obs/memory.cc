#include "obs/memory.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "util/env.h"
#include "util/fault.h"

namespace tg::obs {
namespace {

// Constant-initialized (no static-init guard) so the replacement operator
// new can load it at any point of process startup, including allocations
// made during dynamic initialization of other translation units.
std::atomic<bool> g_mem_tracking{false};

// Per-thread counters. The owner thread writes with relaxed stores;
// TotalAllocStats reads other threads' counters with relaxed loads (counts
// may lag by a few events mid-flight, which is fine for telemetry).
struct ThreadCounters {
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> count{0};
};

struct CounterRegistry {
  std::mutex mu;
  // shared_ptr keeps counters of exited threads alive for TotalAllocStats,
  // mirroring the span buffer registry in trace.cc.
  std::vector<std::shared_ptr<ThreadCounters>> counters;
};

CounterRegistry& Registry() {
  // Leaked on purpose: operator new can run during static destruction
  // (global dtors free and allocate), so the registry must never die.
  static CounterRegistry* registry = new CounterRegistry;
  return *registry;
}

// No dynamic initialization on either thread_local: the raw pointer and the
// guard flag must be readable from inside operator new without tripping a
// thread-safe-init guard (which could itself allocate).
thread_local ThreadCounters* t_counters = nullptr;
// True while this thread is inside the tracking slow path; allocations made
// there (registration, vector growth) are deliberately not counted, which
// also makes the hook re-entrancy safe.
thread_local bool t_in_hook = false;

ThreadCounters* RegisterThread() {
  auto fresh = std::make_shared<ThreadCounters>();
  CounterRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.counters.push_back(fresh);
  t_counters = fresh.get();
  // The shared_ptr in the registry is the owner; the thread keeps a raw
  // pointer so thread exit needs no unregistration hook.
  return t_counters;
}

inline void CountAllocation(size_t size) {
  if (t_in_hook) return;
  t_in_hook = true;
  ThreadCounters* counters = t_counters;
  if (counters == nullptr) counters = RegisterThread();
  counters->bytes.fetch_add(size, std::memory_order_relaxed);
  counters->count.fetch_add(1, std::memory_order_relaxed);
  t_in_hook = false;
}

// Seeds the flag from TG_MEM_TRACK during dynamic initialization.
// Allocations before this runs are simply uncounted.
const bool g_env_seeded = [] {
  if (EnvFlag("TG_MEM_TRACK")) {
    g_mem_tracking.store(true, std::memory_order_relaxed);
  }
  return true;
}();

// malloc-backed allocation honoring the new-handler protocol. `alignment`
// of 0 means the default (malloc already satisfies max_align_t).
void* AllocateOrHandler(size_t size, size_t alignment) {
  if (size == 0) size = 1;  // distinct non-null pointers, as new requires
  // Fault injection for allocation failure (site "alloc", weight = request
  // size, so rules can use min:BYTES to spare small control-flow allocs).
  // ShouldFail itself never allocates, which is what makes this hook legal
  // inside operator new.
  if (tg::fault::Armed() && tg::fault::ShouldFail("alloc", size)) {
    return nullptr;
  }
  for (;;) {
    void* ptr = nullptr;
    if (alignment == 0) {
      ptr = std::malloc(size);
    } else if (posix_memalign(&ptr, alignment, size) != 0) {
      ptr = nullptr;
    }
    if (ptr != nullptr) {
      if (g_mem_tracking.load(std::memory_order_relaxed)) {
        CountAllocation(size);
      }
      return ptr;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) return nullptr;
    handler();
  }
}

void* AllocateOrThrow(size_t size, size_t alignment) {
  void* ptr = AllocateOrHandler(size, alignment);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void SetMemoryTrackingEnabled(bool enabled) {
  g_mem_tracking.store(enabled, std::memory_order_relaxed);
}

bool MemoryTrackingEnabled() {
  return g_mem_tracking.load(std::memory_order_relaxed);
}

AllocStats ThreadAllocStats() {
  const ThreadCounters* counters = t_counters;
  if (counters == nullptr) return {};
  return {counters->bytes.load(std::memory_order_relaxed),
          counters->count.load(std::memory_order_relaxed)};
}

AllocStats TotalAllocStats() {
  AllocStats total;
  CounterRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& counters : registry.counters) {
    total.bytes += counters->bytes.load(std::memory_order_relaxed);
    total.count += counters->count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace tg::obs

// --- Global operator new/delete replacement ---------------------------------
//
// Replacing operator new is what makes the accounting see *every* C++
// allocation in the process (std::vector growth, std::string, map nodes)
// without touching any call site. All variants forward to the same two
// helpers above; operator delete stays exactly free() so the disabled path
// adds nothing there. posix_memalign handles the aligned variants
// (std::aligned_alloc would reject sizes not a multiple of the alignment,
// which operator new must accept). Frees go through free() in every case:
// posix_memalign memory is free()-compatible.

void* operator new(size_t size) { return tg::obs::AllocateOrThrow(size, 0); }

void* operator new[](size_t size) { return tg::obs::AllocateOrThrow(size, 0); }

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return tg::obs::AllocateOrHandler(size, 0);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return tg::obs::AllocateOrHandler(size, 0);
}

void* operator new(size_t size, std::align_val_t alignment) {
  return tg::obs::AllocateOrThrow(size, static_cast<size_t>(alignment));
}

void* operator new[](size_t size, std::align_val_t alignment) {
  return tg::obs::AllocateOrThrow(size, static_cast<size_t>(alignment));
}

void* operator new(size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return tg::obs::AllocateOrHandler(size, static_cast<size_t>(alignment));
}

void* operator new[](size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return tg::obs::AllocateOrHandler(size, static_cast<size_t>(alignment));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
