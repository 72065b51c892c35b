// The obs layer's one per-thread record log and one thread registry.
//
// ThreadLog: the owner appends to a chain of fixed-size blocks, allocated on
// demand, without a lock and release-publishes its record count, so readers
// see only fully written records. Consume frees a block once its cursor has
// stepped into the next one, which exists only after the writer left it.
//
// ObsThread: one leaked entry per thread, registered at its first obs touch,
// so records of exited threads survive until the final flush. Its dense tid
// names the thread in Chrome-trace spans, event-log lines and /statusz.
#ifndef TG_OBS_THREAD_LOG_H_
#define TG_OBS_THREAD_LOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

namespace tg::obs {

template <typename Record, size_t kBlockRecords>
class ThreadLog {
 public:
  ThreadLog() = default;
  ThreadLog(const ThreadLog&) = delete;
  ThreadLog& operator=(const ThreadLog&) = delete;

  ~ThreadLog() {
    Block* block = read_block_ != nullptr ? read_block_ : Next(nullptr);
    while (block != nullptr) {
      Block* next = Next(block);
      delete block;
      block = next;
    }
  }

  // Owner thread only.
  void Append(Record&& record) {
    const size_t slot = write_count_ % kBlockRecords;
    if (slot == 0) {
      Block* fresh = new Block;
      (write_block_ != nullptr ? write_block_->next : head_)
          .store(fresh, std::memory_order_release);
      write_block_ = fresh;
    }
    write_block_->records[slot] = std::move(record);
    published_.store(++write_count_, std::memory_order_release);
  }

  // Readers run one at a time (the caller serializes them), concurrently
  // with Append, and pass the unconsumed published records to fn, oldest
  // first. Visit consumes nothing.
  template <typename Fn>
  void Visit(Fn&& fn) const {
    const Block* block = read_block_;
    const uint64_t end = published_.load(std::memory_order_acquire);
    for (uint64_t i = consumed_; i < end; ++i) {
      if (i % kBlockRecords == 0) block = Next(block);
      fn(block->records[i % kBlockRecords]);
    }
  }

  // Clears each record after fn (releasing what it owns) and moves past it.
  template <typename Fn>
  void Consume(Fn&& fn) {
    const uint64_t end = published_.load(std::memory_order_acquire);
    for (; consumed_ < end; ++consumed_) {
      if (consumed_ % kBlockRecords == 0) {
        Block* next = Next(read_block_);
        delete read_block_;
        read_block_ = next;
      }
      Record& record = read_block_->records[consumed_ % kBlockRecords];
      fn(record);
      record = Record();
    }
  }

 private:
  struct Block {
    Record records[kBlockRecords];
    std::atomic<Block*> next{nullptr};
  };

  // The block after `block`, or the first block for nullptr.
  Block* Next(const Block* block) const {
    return (block != nullptr ? block->next : head_)
        .load(std::memory_order_acquire);
  }

  std::atomic<Block*> head_{nullptr};
  std::atomic<uint64_t> published_{0};
  Block* write_block_ = nullptr;  // owner thread only
  uint64_t write_count_ = 0;      // owner thread only
  // Reader only: the cursor and the block holding record consumed_ - 1.
  Block* read_block_ = nullptr;
  uint64_t consumed_ = 0;
};

// The subsystems that keep per-thread state on ObsThread, one slot each.
enum class ThreadSlot { kSpans, kEvents, kSamples, kCount };

struct ObsThread {
  explicit ObsThread(uint32_t id)
      : tid(id), name("thread-" + std::to_string(id)) {}

  // The state in `slot`, or nullptr if the thread never created it.
  template <typename State>
  State* Find(ThreadSlot slot) const {
    return static_cast<State*>(
        states[static_cast<size_t>(slot)].load(std::memory_order_acquire));
  }

  // Owner thread only: the state in `slot`, created on first use.
  template <typename State>
  State& GetOrCreate(ThreadSlot slot) {
    State* state = Find<State>(slot);
    if (state == nullptr) {
      state = new State;
      states[static_cast<size_t>(slot)].store(state,
                                              std::memory_order_release);
    }
    return *state;
  }

  const uint32_t tid;
  std::string name;  // guarded by the registry mutex
  std::atomic<void*> states[static_cast<size_t>(ThreadSlot::kCount)] = {};
};

// The calling thread's entry, registered with the next tid on first use.
ObsThread& CurrentObsThread();

// Calls fn on every entry in tid order under the registry mutex, which also
// serializes the readers of the entries' logs. fn must not register or name
// a thread.
void ForEachObsThread(const std::function<void(ObsThread&)>& fn);

}  // namespace tg::obs

#endif  // TG_OBS_THREAD_LOG_H_
