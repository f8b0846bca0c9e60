#ifndef OTFAIR_COMMON_WORK_QUEUE_H_
#define OTFAIR_COMMON_WORK_QUEUE_H_

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace otfair::common {

/// Bounded multi-producer / multi-consumer work queue with batch pops —
/// the primitive underneath `serve::Batcher`. Nothing in it blocks or
/// waits: a full (or closed) queue is reported to the producer at once,
/// which turns queue pressure into an explicit backpressure rejection at
/// the serving boundary instead of an unbounded buffer, and `TryPopBatch`
/// drains what is queued now. Consumers are the threads that bring the
/// work (caller-runs execution), so none ever sleeps on the queue.
///
/// All operations are linearizable under the internal mutex; the queue
/// never drops an accepted item — after `Close()`, pops keep draining
/// whatever was accepted before the close.
///
/// Storage is a preallocated ring of default-constructed `T` slots
/// (`T` must be default-constructible and movable): pushes move-assign
/// into recycled moved-from slots, so steady-state operation performs no
/// allocations of its own.
template <typename T>
class BoundedWorkQueue {
 public:
  explicit BoundedWorkQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity), slots_(capacity_) {}

  BoundedWorkQueue(const BoundedWorkQueue&) = delete;
  BoundedWorkQueue& operator=(const BoundedWorkQueue&) = delete;

  /// Appends an item unless the queue is full or closed. When `size_after`
  /// is non-null it receives the queue size including the new item (only
  /// meaningful on success) — producers use it to detect a full batch
  /// without a second lock.
  bool TryPush(T&& item, size_t* size_after = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || count_ >= capacity_) return false;
    slots_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
    if (size_after != nullptr) *size_after = count_;
    return true;
  }

  /// Drains up to `max_items` into `out` (appending; existing capacity is
  /// reused) without blocking. Returns the number popped.
  size_t TryPopBatch(size_t max_items, std::vector<T>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t popped = 0;
    while (popped < max_items && count_ > 0) {
      out->push_back(std::move(slots_[head_]));
      head_ = (head_ + 1) % capacity_;
      --count_;
      ++popped;
    }
    return popped;
  }

  /// Closes the queue: further pushes fail; pops still drain what remains.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<T> slots_;  // ring: [head_, head_ + count_) mod capacity_
  size_t head_ = 0;
  size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace otfair::common

#endif  // OTFAIR_COMMON_WORK_QUEUE_H_
