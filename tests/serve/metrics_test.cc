#include "serve/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace otfair::serve {
namespace {

TEST(MetricsTest, CountersAccumulate) {
  Metrics metrics;
  metrics.AddAccepted(10);
  metrics.AddRepaired(8);
  metrics.AddInvalid(2);
  metrics.AddBatch();
  metrics.AddBatch();
  metrics.AddReload();
  const MetricsSnapshot snap = metrics.Snapshot(17);
  EXPECT_EQ(snap.rows_accepted, 10u);
  EXPECT_EQ(snap.rows_repaired, 8u);
  EXPECT_EQ(snap.rows_invalid, 2u);
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_EQ(snap.reloads, 1u);
  EXPECT_EQ(snap.queue_depth, 17u);
  EXPECT_GT(snap.uptime_seconds, 0.0);
}

TEST(MetricsTest, LatencyQuantilesWithinBucketResolution) {
  Metrics metrics;
  // 980 fast requests at 100us, 20 slow ones at 10000us: nearest-rank p99
  // (rank 990 of 1000) lands in the slow population.
  for (int i = 0; i < 980; ++i) metrics.RecordLatencyUs(100.0);
  for (int i = 0; i < 20; ++i) metrics.RecordLatencyUs(10000.0);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.latency_samples, 1000u);
  // Log-linear buckets are exact to within 12.5%.
  EXPECT_NEAR(snap.latency_p50_us, 100.0, 100.0 * 0.15);
  EXPECT_NEAR(snap.latency_p90_us, 100.0, 100.0 * 0.15);
  EXPECT_NEAR(snap.latency_p99_us, 10000.0, 10000.0 * 0.15);
  EXPECT_EQ(snap.latency_max_us, 10000.0);
}

TEST(MetricsTest, LatencyEdgeValues) {
  Metrics metrics;
  metrics.RecordLatencyUs(-5.0);  // clamps to 0
  metrics.RecordLatencyUs(0.0);
  metrics.RecordLatencyUs(3.0);   // exact low buckets
  metrics.RecordLatencyUs(1e12);  // far tail still lands in a bucket
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.latency_samples, 4u);
  EXPECT_EQ(snap.latency_p50_us, 0.0);  // nearest-rank 2 of 4
  EXPECT_GT(snap.latency_p99_us, 1e9);  // nearest-rank 4 of 4: the tail sample
}

TEST(MetricsTest, QuantilesNeverExceedTheRecordedMax) {
  // 3111us lands in a bucket whose midpoint (3200us) exceeds every
  // recorded value; lifetime and window quantiles clamp to the max.
  ASSERT_GT(obs::Histogram::BucketValueUs(obs::Histogram::BucketIndex(3111)), 3111u);
  Metrics metrics;
  for (int i = 0; i < 10; ++i) metrics.RecordLatencyUs(3111.0);
  const MetricsSnapshot snap = metrics.ScrapeSnapshot();
  EXPECT_EQ(snap.latency_max_us, 3111.0);
  EXPECT_EQ(snap.window_latency_samples, 10u);
  for (double quantile :
       {snap.latency_p50_us, snap.latency_p90_us, snap.latency_p99_us,
        snap.window_latency_p50_us, snap.window_latency_p90_us, snap.window_latency_p99_us})
    EXPECT_EQ(quantile, 3111.0);
}

TEST(MetricsTest, SnapshotUnderConcurrentWriters) {
  Metrics metrics;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        metrics.AddAccepted(1);
        metrics.AddRepaired(1);
        metrics.RecordLatencyUs(50.0);
      }
    });
  }
  for (auto& w : writers) w.join();
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.rows_accepted, 40000u);
  EXPECT_EQ(snap.rows_repaired, 40000u);
  EXPECT_EQ(snap.latency_samples, 40000u);
}

TEST(MetricsTest, ToJsonCarriesTheCounters) {
  Metrics metrics;
  metrics.AddAccepted(5);
  metrics.AddRepaired(5);
  const std::string json = metrics.Snapshot(2).ToJson();
  EXPECT_NE(json.find("\"rows_accepted\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_depth\":2"), std::string::npos) << json;
  // No serving path rejects a row it has read; the key keeps its slot.
  EXPECT_NE(json.find("\"rows_invalid\":0,\"rows_rejected\":0,\"batches\":0"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"latency_p99_us\":"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsTest, LegacyJsonKeyOrderPreservedNewKeysAppended) {
  Metrics metrics;
  const std::string json = metrics.Snapshot().ToJson();
  // Pre-registry keys must render first and in the historical order —
  // consumers of the `metrics` verb parse positionally-diffable lines.
  EXPECT_EQ(json.find("{\"rows_accepted\":"), 0u) << json;
  const size_t legacy_tail = json.find("\"latency_max_us\":");
  ASSERT_NE(legacy_tail, std::string::npos) << json;
  for (const char* appended :
       {"\"degraded\":false", "\"redesign_episodes\":0", "\"redesign_gave_up\":0",
        "\"window_latency_samples\":0", "\"window_latency_p99_us\":0"}) {
    const size_t pos = json.find(appended);
    ASSERT_NE(pos, std::string::npos) << appended << " missing in " << json;
    EXPECT_GT(pos, legacy_tail) << appended << " must append after the legacy keys";
  }
}

TEST(MetricsTest, DegradedAndRedesignCountersFlowThrough) {
  Metrics metrics;
  metrics.SetDegraded(true);
  metrics.AddRedesignEpisode();
  metrics.AddRedesignAttempt();
  metrics.AddRedesignAttempt();
  metrics.AddRedesignFailure();
  metrics.AddRedesignReload();
  metrics.AddRedesignGaveUp();
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_TRUE(snap.degraded);
  EXPECT_EQ(snap.redesign_episodes, 1u);
  EXPECT_EQ(snap.redesign_attempts, 2u);
  EXPECT_EQ(snap.redesign_failures, 1u);
  EXPECT_EQ(snap.redesign_reloads, 1u);
  EXPECT_EQ(snap.redesign_gave_up, 1u);
  metrics.SetDegraded(false);
  EXPECT_FALSE(metrics.Snapshot().degraded);
}

TEST(MetricsTest, ScrapeWindowIsolatesTheInterval) {
  Metrics metrics;
  for (int i = 0; i < 100; ++i) metrics.RecordLatencyUs(100.0);
  // Snapshot() never consumes the window: before the first scrape the
  // window quantiles stay zero no matter how often health is polled.
  EXPECT_EQ(metrics.Snapshot().window_latency_samples, 0u);
  EXPECT_EQ(metrics.Snapshot().window_latency_samples, 0u);

  // First scrape closes window #1 (everything since start).
  const MetricsSnapshot first = metrics.ScrapeSnapshot();
  EXPECT_EQ(first.window_latency_samples, 100u);
  EXPECT_NEAR(first.window_latency_p50_us, 100.0, 100.0 * 0.15);

  // A slow interval: the next scrape's window sees ONLY the new samples,
  // while the lifetime quantiles still blend both populations.
  for (int i = 0; i < 100; ++i) metrics.RecordLatencyUs(10000.0);
  const MetricsSnapshot second = metrics.ScrapeSnapshot();
  EXPECT_EQ(second.window_latency_samples, 100u);
  EXPECT_NEAR(second.window_latency_p50_us, 10000.0, 10000.0 * 0.15);
  EXPECT_EQ(second.latency_samples, 200u);
  EXPECT_NEAR(second.latency_p50_us, 100.0, 100.0 * 0.15);

  // Non-scrape snapshots keep reporting the last CLOSED window.
  EXPECT_EQ(metrics.Snapshot().window_latency_samples, 100u);
  EXPECT_NEAR(metrics.Snapshot().window_latency_p50_us, 10000.0, 10000.0 * 0.15);
}

TEST(MetricsTest, RenderPrometheusExposesTheFacadeInstruments) {
  Metrics metrics;
  metrics.AddAccepted(3);
  metrics.AddRepaired(3);
  metrics.RecordLatencyUs(50.0);
  const std::string text = metrics.RenderPrometheus(/*queue_depth=*/5);
  EXPECT_NE(text.find("# TYPE otfair_serve_rows_accepted_total counter\n"
                      "otfair_serve_rows_accepted_total 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("otfair_serve_queue_depth 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE otfair_serve_latency_us histogram\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("otfair_serve_latency_us_count 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("otfair_serve_latency_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(MetricsTest, RegistryIsTheExtensionPoint) {
  Metrics metrics;
  // Components hang their own gauges off the facade's registry and show
  // up in the same exposition; name collisions with the facade bounce.
  auto* gauge = metrics.registry().AddGauge("otfair_serve_custom", "component gauge").value();
  gauge->Set(9.0);
  EXPECT_NE(metrics.RenderPrometheus().find("otfair_serve_custom 9\n"), std::string::npos);
  EXPECT_FALSE(metrics.registry().AddCounter("otfair_serve_rows_accepted_total", "dup").ok());
}

}  // namespace
}  // namespace otfair::serve
