// Fixed-size worker pool and chunked parallel-for, the process-wide parallel
// execution substrate.
//
// Determinism contract: ParallelFor partitions [begin, end) into chunks from
// `grain` alone -- never from the thread count -- so a caller that derives all
// randomness from the chunk (or item) index produces bit-identical results
// for any TG_THREADS value, including 1. See docs/threading.md.
//
// The worker count is process-wide: the TG_THREADS environment variable when
// set and non-empty (it must be a positive decimal integer; anything else is
// a hard error), otherwise std::thread::hardware_concurrency(), and
// SetThreadCount() overrides both at runtime (tests use this to compare
// thread counts in-process).
#ifndef TG_UTIL_THREAD_POOL_H_
#define TG_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tg {

// Worker threads used by parallel regions: SetThreadCount() override if set,
// else TG_THREADS, else hardware_concurrency(). Always >= 1.
size_t ThreadCount();

// Overrides the process-wide thread count (0 restores the TG_THREADS /
// hardware default). Must not be called while parallel work is in flight.
void SetThreadCount(size_t n);

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw; ParallelFor wraps user functions
  // with its own exception capture.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return threads_.size(); }

  // True on a pool worker thread. Nested ParallelFor calls detect this and
  // run inline (same chunking, same results) instead of deadlocking on a
  // saturated queue.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// The lazily-created process-wide pool, sized to ThreadCount(). Rebuilt when
// the thread count changes between parallel regions.
ThreadPool& GlobalThreadPool();

// Splits [begin, end) into ceil((end-begin)/grain) chunks and invokes
// fn(chunk_begin, chunk_end, chunk_index) for each, in parallel across the
// global pool (the calling thread participates). Blocks until every chunk
// finished. The first exception thrown by fn is rethrown in the caller once
// all in-flight chunks drain; chunks not yet started are then skipped.
//
// Chunk boundaries depend only on `grain`, so per-chunk (or per-item) seeded
// work is bit-identical for any thread count.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t, size_t)>& fn);

// Estimated total work (item count x a per-item cost proxy) below which a
// parallel region costs more in pool dispatch than it saves; shared by every
// ParallelForIfWorth call site so the tradeoff is tuned in one place.
inline constexpr size_t kMinParallelWork = 16384;

// ParallelFor with a minimum-work heuristic: when `estimated_work` (the
// caller's item-count x per-item-cost estimate) is below kMinParallelWork,
// the chunks run inline on the calling thread -- same chunk boundaries, same
// chunk indices, bit-identical results -- skipping queue locks, wakeups and
// the completion wait. Small nodes/feature sets in tree fitting are the
// motivating case (see docs/performance.md).
void ParallelForIfWorth(size_t begin, size_t end, size_t grain,
                        size_t estimated_work,
                        const std::function<void(size_t, size_t, size_t)>& fn);

}  // namespace tg

#endif  // TG_UTIL_THREAD_POOL_H_
