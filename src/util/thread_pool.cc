#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace tg {
namespace {

std::atomic<size_t> g_thread_override{0};

thread_local bool t_in_worker = false;

size_t DefaultThreadCount() {
  static const size_t cached = [] {
    const char* env = std::getenv("TG_THREADS");
    if (env != nullptr && env[0] != '\0') {
      uint64_t v = 0;
      if (ParseUint64(env, &v) && v > 0) return static_cast<size_t>(v);
      // Same policy as TG_ISA: a forced knob must never silently fall back.
      std::fprintf(stderr,
                   "TG_THREADS=%s: expected a positive decimal integer\n",
                   env);
      std::exit(1);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<size_t>(hw > 0 ? hw : 1);
  }();
  return cached;
}

}  // namespace

size_t ThreadCount() {
  const size_t override = g_thread_override.load(std::memory_order_relaxed);
  return override > 0 ? override : DefaultThreadCount();
}

void SetThreadCount(size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] {
      obs::SetCurrentThreadName("tg-worker-" + std::to_string(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  static obs::Counter& tasks =
      obs::MetricsRegistry::Instance().GetCounter("thread_pool.tasks");
  tasks.Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::InWorker() { return t_in_worker; }

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    if (obs::MetricsEnabled()) {
      static obs::Gauge& busy = obs::MetricsRegistry::Instance().GetGauge(
          "thread_pool.worker_busy_seconds");
      const auto start = std::chrono::steady_clock::now();
      task();
      busy.Add(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count());
    } else {
      task();
    }
  }
}

ThreadPool& GlobalThreadPool() {
  static std::mutex* mu = new std::mutex;
  static std::unique_ptr<ThreadPool>* pool = new std::unique_ptr<ThreadPool>;
  std::lock_guard<std::mutex> lock(*mu);
  const size_t want = ThreadCount();
  if (!*pool || (*pool)->num_threads() != want) {
    pool->reset();  // join the old workers before spawning the new pool
    *pool = std::make_unique<ThreadPool>(want);
  }
  return **pool;
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;

  const auto run_chunk = [begin, end, grain, &fn](size_t c) {
    // Chaos hook: simulates a task that dies before user code runs. The
    // exception takes the same capture/rethrow path as one thrown by fn,
    // so tests exercise the pool's failure plumbing end to end.
    if (TG_FAULT_POINT("thread_pool.dispatch")) {
      throw std::runtime_error("injected fault at thread_pool.dispatch");
    }
    const size_t lo = begin + c * grain;
    fn(lo, std::min(end, lo + grain), c);
  };

  static obs::Counter& pf_calls = obs::MetricsRegistry::Instance().GetCounter(
      "thread_pool.parallel_for.calls");
  static obs::Counter& pf_chunks = obs::MetricsRegistry::Instance().GetCounter(
      "thread_pool.parallel_for.chunks");
  pf_calls.Increment();
  pf_chunks.Increment(num_chunks);

  if (num_chunks == 1 || ThreadCount() == 1 || ThreadPool::InWorker()) {
    // Inline execution stays on the calling thread, so spans opened inside
    // fn already nest under the caller's current span.
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
    return;
  }

  // Spans opened by fn on a pool worker must attach to the span that
  // enqueued this region, not to whatever the worker traced last: capture
  // the caller's current span and re-establish it inside each drain.
  const uint64_t parent_span = obs::CurrentSpanId();

  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t total = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  shared->total = num_chunks;

  // Each drain loop claims chunk indices until exhausted. A late-running
  // submitted copy after the caller returned claims nothing and never calls
  // run_chunk (whose captured references would be dangling by then).
  const auto drain = [shared, run_chunk, parent_span] {
    obs::ParentScope handoff(parent_span);
    obs::Span drain_span("pool_drain");
    for (;;) {
      const size_t c = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= shared->total) return;
      bool skip;
      {
        std::lock_guard<std::mutex> lock(shared->mu);
        skip = shared->error != nullptr;
      }
      if (!skip) {
        try {
          run_chunk(c);
        } catch (...) {
          std::lock_guard<std::mutex> lock(shared->mu);
          if (!shared->error) shared->error = std::current_exception();
        }
      }
      if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          shared->total) {
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->cv.notify_all();
      }
    }
  };

  ThreadPool& pool = GlobalThreadPool();
  const size_t helpers = std::min(pool.num_threads(), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) pool.Submit(drain);
  drain();  // the caller participates

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&shared] {
    return shared->done.load(std::memory_order_acquire) == shared->total;
  });
  if (shared->error) std::rethrow_exception(shared->error);
}

void ParallelForIfWorth(size_t begin, size_t end, size_t grain,
                        size_t estimated_work,
                        const std::function<void(size_t, size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (estimated_work < kMinParallelWork) {
    static obs::Counter& inline_runs =
        obs::MetricsRegistry::Instance().GetCounter(
            "thread_pool.parallel_for.inline_small_work");
    inline_runs.Increment();
    if (grain == 0) grain = 1;
    const size_t num_chunks = (end - begin + grain - 1) / grain;
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = begin + c * grain;
      fn(lo, std::min(end, lo + grain), c);
    }
    return;
  }
  ParallelFor(begin, end, grain, fn);
}

}  // namespace tg
