#ifndef OTFAIR_OBS_TRACE_H_
#define OTFAIR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace otfair::obs {

/// Dapper-style span tracing with per-thread lock-free ring buffers and
/// Chrome trace-event export (loadable in Perfetto / chrome://tracing).
///
/// Instrumentation sites drop an `OTFAIR_TRACE_SPAN("name")` at the top of
/// a scope; the RAII guard records a completed span (begin/end timestamps)
/// into the calling thread's ring when tracing is enabled. When tracing is
/// DISABLED — the default — the guard compiles down to one relaxed atomic
/// load and a predictable branch, so instrumented hot paths (per Sinkhorn
/// iteration, per repair span, per admitted row) cost nothing measurable.
///
/// Span names must be string literals (static storage duration): the ring
/// stores the pointer, never copies the bytes.

/// One completed span as drained from a ring.
struct CompletedSpan {
  const char* name = nullptr;
  /// Small dense thread id assigned at ring registration (1, 2, ...).
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
uint64_t TraceNowNs();

/// Wait-free single-producer span ring with overwrite semantics: the
/// producing thread always wins — when the ring is full the OLDEST
/// unconsumed events are overwritten (and counted as dropped at the next
/// drain), never blocking or slowing the producer. Each slot carries a
/// seqlock-style generation counter so a concurrent drain detects and
/// discards torn slots instead of reading mixed generations.
///
/// One thread pushes; any number of drains may run, but they must be
/// externally serialized (the TraceCollector drains under its own mutex).
class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 16384;

  /// `capacity` is rounded up to a power of two.
  explicit TraceRing(size_t capacity = kDefaultCapacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one completed span. Producer thread only; wait-free.
  void Push(const char* name, uint64_t start_ns, uint64_t end_ns) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[h & mask_];
    // Odd = write in progress: a concurrent drain of this generation (or
    // of the one being overwritten) sees the marker and skips the slot.
    slot.seq.store(2 * h + 1, std::memory_order_release);
    slot.name.store(reinterpret_cast<uintptr_t>(name), std::memory_order_relaxed);
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
    slot.end_ns.store(end_ns, std::memory_order_relaxed);
    // Even = published for generation h; release orders the payload.
    slot.seq.store(2 * (h + 1), std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Appends every event published since the last drain to `out` (stamped
  /// with `tid`) and returns how many were lost to overwrite since then.
  /// Single consumer at a time.
  uint64_t Drain(uint32_t tid, std::vector<CompletedSpan>* out);

  size_t capacity() const { return mask_ + 1; }
  /// Total events ever pushed (for tests).
  uint64_t pushed() const { return head_.load(std::memory_order_acquire); }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uintptr_t> name{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> end_ns{0};
  };

  size_t mask_;
  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};
  /// Consumer-side cursor; guarded by the (external) drain serialization.
  uint64_t consumed_ = 0;
};

/// Process-wide registry of every thread's ring plus the enable flag and
/// the accumulated drained events. All methods are thread-safe.
class TraceCollector {
 public:
  static TraceCollector& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drains every registered ring into the internal event store and
  /// returns a copy of everything collected so far.
  std::vector<CompletedSpan> Drain();

  /// Events lost to ring overwrite across all drains so far.
  uint64_t dropped_total() const { return dropped_total_.load(std::memory_order_relaxed); }

  /// Drains, then writes every collected span as Chrome trace-event JSON
  /// ({"traceEvents":[{"ph":"X",...}]}), one complete ("X") event per
  /// span, timestamps in microseconds. The file loads in Perfetto.
  common::Status WriteChromeTrace(const std::string& path);

  /// Renders the collected spans (post-drain) as the Chrome trace JSON
  /// string — exposed for tests and the CLI.
  std::string ChromeTraceJson();

  /// Clears collected events and the drop counter, and fast-forwards every
  /// ring's cursor past its current contents. Test isolation only.
  void ResetForTest();

  /// Called by the thread-local ring handle when a thread first opens a
  /// span.
  void RegisterThread(std::shared_ptr<TraceRing>* ring, uint32_t* tid);

  /// The enable flag, exposed for the inline fast path.
  const std::atomic<bool>* enabled_flag() const { return &enabled_; }

 private:
  TraceCollector() = default;

  struct ThreadRecord {
    std::shared_ptr<TraceRing> ring;
    uint32_t tid = 0;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_total_{0};
  std::mutex mu_;
  std::vector<ThreadRecord> threads_;
  std::vector<CompletedSpan> collected_;
};

namespace internal {
/// The global enable flag, reachable without a function call so the
/// disabled span constructor inlines to load + branch.
extern std::atomic<bool>* const g_trace_enabled;
/// The calling thread's ring, allocated and registered on first use.
TraceRing& ThreadRing();
}  // namespace internal

inline bool TraceEnabled() {
  return internal::g_trace_enabled->load(std::memory_order_relaxed);
}

/// RAII span guard. Disabled: one relaxed atomic load + branch, no clock
/// read, no ring touch. Enabled: two clock reads and one wait-free push.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!TraceEnabled()) return;
    // The ring before the clock: a thread's first span is its outermost
    // one, so the ring's allocation lands before every span on the
    // thread instead of inside one.
    ring_ = &internal::ThreadRing();
    name_ = name;
    start_ns_ = TraceNowNs();
  }
  ~TraceSpan() {
    if (ring_ == nullptr) return;
    ring_->Push(name_, start_ns_, TraceNowNs());
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRing* ring_ = nullptr;
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
};

}  // namespace otfair::obs

#define OTFAIR_TRACE_CONCAT_INNER(a, b) a##b
#define OTFAIR_TRACE_CONCAT(a, b) OTFAIR_TRACE_CONCAT_INNER(a, b)
/// Traces the enclosing scope as one span. `name` must be a string
/// literal.
#define OTFAIR_TRACE_SPAN(name) \
  ::otfair::obs::TraceSpan OTFAIR_TRACE_CONCAT(otfair_trace_span_, __LINE__)(name)

#endif  // OTFAIR_OBS_TRACE_H_
