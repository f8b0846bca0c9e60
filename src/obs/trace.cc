#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/file_util.h"
#include "common/json_writer.h"

namespace otfair::obs {

uint64_t TraceNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceRing::TraceRing(size_t capacity) {
  const size_t cap = RoundUpPow2(std::max<size_t>(capacity, 2));
  mask_ = cap - 1;
  slots_ = std::vector<Slot>(cap);
}

uint64_t TraceRing::Drain(uint32_t tid, std::vector<CompletedSpan>* out) {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const size_t cap = mask_ + 1;
  // Anything older than head - capacity has been overwritten.
  uint64_t start = consumed_;
  uint64_t dropped = 0;
  if (head > cap && start < head - cap) {
    dropped += (head - cap) - start;
    start = head - cap;
  }
  for (uint64_t i = start; i < head; ++i) {
    const Slot& slot = slots_[i & mask_];
    const uint64_t want = 2 * (i + 1);
    if (slot.seq.load(std::memory_order_acquire) != want) {
      // Torn (mid-write) or already overwritten by a newer generation.
      ++dropped;
      continue;
    }
    CompletedSpan span;
    span.name = reinterpret_cast<const char*>(slot.name.load(std::memory_order_relaxed));
    span.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    span.end_ns = slot.end_ns.load(std::memory_order_relaxed);
    span.tid = tid;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != want) {
      // Producer lapped us mid-copy; the copied fields may be torn.
      ++dropped;
      continue;
    }
    out->push_back(span);
  }
  consumed_ = head;
  return dropped;
}

TraceCollector& TraceCollector::Global() {
  // Leaked: spans can be emitted from detached threads during shutdown.
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::RegisterThread(std::shared_ptr<TraceRing>* ring, uint32_t* tid) {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadRecord record;
  record.ring = std::make_shared<TraceRing>();
  record.tid = static_cast<uint32_t>(threads_.size()) + 1;
  threads_.push_back(record);
  *ring = record.ring;
  *tid = record.tid;
}

std::vector<CompletedSpan> TraceCollector::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadRecord& record : threads_) {
    const uint64_t dropped = record.ring->Drain(record.tid, &collected_);
    if (dropped != 0) dropped_total_.fetch_add(dropped, std::memory_order_relaxed);
  }
  return collected_;
}

std::string TraceCollector::ChromeTraceJson() {
  std::vector<CompletedSpan> spans = Drain();
  std::sort(spans.begin(), spans.end(), [](const CompletedSpan& a, const CompletedSpan& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    // Outer spans end later; emitting them first keeps nesting readable.
    return a.end_ns > b.end_ns;
  });
  // Timestamps are rebased to the earliest span: absolute steady-clock
  // microseconds (~1e10 after hours of uptime) would exceed the JSON
  // writer's 10 significant digits and quantize starts onto a 10 us grid,
  // breaking sub-span nesting in the viewer. Rebased values span only the
  // traced run, so full sub-microsecond precision survives.
  uint64_t base_ns = 0;
  if (!spans.empty()) {
    base_ns = spans.front().start_ns;
    for (const CompletedSpan& span : spans) base_ns = std::min(base_ns, span.start_ns);
  }
  common::JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const CompletedSpan& span : spans) {
    w.BeginObject();
    w.Key("name").String(span.name == nullptr ? "?" : span.name);
    w.Key("cat").String("otfair");
    w.Key("ph").String("X");
    w.Key("pid").Int(1);
    w.Key("tid").Int(static_cast<int64_t>(span.tid));
    w.Key("ts").Double(static_cast<double>(span.start_ns - base_ns) / 1000.0);
    w.Key("dur").Double(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

common::Status TraceCollector::WriteChromeTrace(const std::string& path) {
  return common::AtomicWriteFile(path, ChromeTraceJson());
}

void TraceCollector::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadRecord& record : threads_) {
    std::vector<CompletedSpan> discard;
    record.ring->Drain(record.tid, &discard);
  }
  collected_.clear();
  dropped_total_.store(0, std::memory_order_relaxed);
}

namespace internal {

std::atomic<bool>* const g_trace_enabled = []() {
  // Touch the collector once so its enable flag outlives every user.
  return const_cast<std::atomic<bool>*>(TraceCollector::Global().enabled_flag());
}();

namespace {

/// Thread-local handle: registers this thread's ring with the collector on
/// first use and keeps it alive (shared_ptr) past thread exit.
struct ThreadRingHandle {
  std::shared_ptr<TraceRing> ring;
  uint32_t tid = 0;
  ThreadRingHandle() { TraceCollector::Global().RegisterThread(&ring, &tid); }
};

}  // namespace

TraceRing& ThreadRing() {
  thread_local ThreadRingHandle handle;
  return *handle.ring;
}

}  // namespace internal

}  // namespace otfair::obs
