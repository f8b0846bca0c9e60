#include "obs/trace.h"

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace otfair::obs {
namespace {

/// The collector is a process singleton shared across tests; every test
/// starts from a clean slate.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCollector::Global().Disable();
    TraceCollector::Global().ResetForTest();
  }
  void TearDown() override {
    TraceCollector::Global().Disable();
    TraceCollector::Global().ResetForTest();
  }
};

TEST_F(TraceTest, RingKeepsNewestOnWraparoundAndCountsDrops) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) ring.Push("span", /*start_ns=*/i, /*end_ns=*/i + 1);
  std::vector<CompletedSpan> out;
  const uint64_t dropped = ring.Drain(/*tid=*/7, &out);
  // Overwrite-oldest: the 8 newest survive, the 12 oldest are counted.
  EXPECT_EQ(dropped, 12u);
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].start_ns, 12 + i);
    EXPECT_EQ(out[i].end_ns, 13 + i);
    EXPECT_EQ(out[i].tid, 7u);
  }
}

TEST_F(TraceTest, RingDrainsIncrementally) {
  TraceRing ring(16);
  ring.Push("a", 1, 2);
  ring.Push("b", 3, 4);
  std::vector<CompletedSpan> out;
  EXPECT_EQ(ring.Drain(1, &out), 0u);
  EXPECT_EQ(out.size(), 2u);
  ring.Push("c", 5, 6);
  out.clear();
  EXPECT_EQ(ring.Drain(1, &out), 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_STREQ(out[0].name, "c");
  EXPECT_EQ(ring.pushed(), 3u);
}

TEST_F(TraceTest, DisabledSpanEmitsNothing) {
  ASSERT_FALSE(TraceCollector::Global().enabled());
  { OTFAIR_TRACE_SPAN("never_recorded"); }
  for (const CompletedSpan& span : TraceCollector::Global().Drain())
    EXPECT_STRNE(span.name, "never_recorded");
}

TEST_F(TraceTest, EnabledSpanRecordsOrderedTimestamps) {
  TraceCollector::Global().Enable();
  { OTFAIR_TRACE_SPAN("recorded_once"); }
  TraceCollector::Global().Disable();
  int hits = 0;
  for (const CompletedSpan& span : TraceCollector::Global().Drain()) {
    if (std::string(span.name) != "recorded_once") continue;
    ++hits;
    EXPECT_LE(span.start_ns, span.end_ns);
    EXPECT_GT(span.tid, 0u);
  }
  EXPECT_EQ(hits, 1);
}

TEST_F(TraceTest, CrossThreadDrainSeesEveryThreadsSpans) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  TraceCollector::Global().Enable();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        OTFAIR_TRACE_SPAN("cross_thread");
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  TraceCollector::Global().Disable();

  std::map<uint32_t, int> per_tid;
  std::map<uint32_t, uint64_t> last_start;
  for (const CompletedSpan& span : TraceCollector::Global().Drain()) {
    if (std::string(span.name) != "cross_thread") continue;
    ++per_tid[span.tid];
    // Within one thread the drained order preserves emission order, and
    // the steady clock is monotone per thread.
    EXPECT_GE(span.start_ns, last_start[span.tid]);
    last_start[span.tid] = span.start_ns;
  }
  ASSERT_EQ(per_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, count] : per_tid) EXPECT_EQ(count, kSpansPerThread) << tid;
  EXPECT_EQ(TraceCollector::Global().dropped_total(), 0u);
}

TEST_F(TraceTest, ConcurrentPushAndDrainNeverTearsASlot) {
  // Hammer one thread's ring while the collector drains concurrently:
  // every drained span must be internally consistent (seqlock discards
  // torn reads as drops, never emits them).
  TraceCollector::Global().Enable();
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      internal::ThreadRing().Push("torn_check", 2 * i, 2 * i + 1);
      ++i;
    }
  });
  // Keep draining until enough spans have raced past (the producer
  // thread may take a while to start); the producer never stops pushing,
  // so this terminates.
  uint64_t seen = 0;
  while (seen < 20000) {
    for (const CompletedSpan& span : TraceCollector::Global().Drain()) {
      if (std::string(span.name) != "torn_check") continue;
      ++seen;
      // start even, end = start + 1: any mixed-generation read breaks it.
      EXPECT_EQ(span.start_ns % 2, 0u);
      EXPECT_EQ(span.end_ns, span.start_ns + 1);
    }
    TraceCollector::Global().ResetForTest();
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  EXPECT_GE(seen, 20000u);
}

TEST_F(TraceTest, ChromeTraceJsonMatchesGoldenSchema) {
  // Two spans with known rebased timestamps: the earliest start becomes
  // ts 0, a span starting 1000 ns later gets ts 1 (µs). Everything else
  // in the golden fragment is fixed by the Chrome trace-event schema.
  internal::ThreadRing().Push("alpha", 1000, 5000);
  internal::ThreadRing().Push("beta", 2000, 3000);
  const std::string json = TraceCollector::Global().ChromeTraceJson();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"alpha\",\"cat\":\"otfair\",\"ph\":\"X\",\"pid\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ts\":0,\"dur\":4}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":1,\"dur\":1}"), std::string::npos) << json;
  EXPECT_EQ(json.substr(json.size() - 2), "]}") << json;
}

TEST_F(TraceTest, WriteChromeTraceProducesLoadableFile) {
  internal::ThreadRing().Push("file_span", 10, 20);
  const std::string path = ::testing::TempDir() + "/otfair_trace_test.json";
  ASSERT_TRUE(TraceCollector::Global().WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("file_span"), std::string::npos);
}

}  // namespace
}  // namespace otfair::obs
