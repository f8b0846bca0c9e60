#include "serve/batcher.h"

#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "obs/trace.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"

namespace otfair::serve {
namespace {

std::unique_ptr<RepairService> MakeService(uint64_t seed, ServiceOptions options = {}) {
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(600, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  EXPECT_TRUE(plans.ok());
  auto service = RepairService::Create(std::move(*plans), options);
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(*service);
}

RowRequest MakeRequest(uint64_t session, uint64_t row) {
  RowRequest request;
  request.session_id = session;
  request.row_index = row;
  request.u = static_cast<int>(row % 2);
  request.s = static_cast<int>((row / 2) % 2);
  request.features = {0.1 * static_cast<double>(row % 20) - 1.0, 0.5};
  return request;
}

/// Sink collecting every delivered (session, row) exactly once.
struct CollectingSink {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  uint64_t responses = 0;
  uint64_t failures = 0;
  uint64_t duplicates = 0;

  Batcher::Sink AsSink() {
    return [this](const RowResponse& response) {
      ++responses;
      if (!response.status.ok()) ++failures;
      if (!seen.insert({response.session_id, response.row_index}).second) ++duplicates;
    };
  }
};

TEST(BatcherTest, TracesAdmitOnlyOnLatencySampledRows) {
  auto service = MakeService(4);
  obs::TraceCollector& trace = obs::TraceCollector::Global();
  trace.ResetForTest();
  trace.Enable();
  {
    Batcher batcher(service.get(), 16, nullptr);
    for (uint64_t i = 0; i < 64; ++i) batcher.Submit(MakeRequest(0, i));
  }
  trace.Disable();
  size_t admits = 0;
  size_t flushes = 0;
  for (const obs::CompletedSpan& span : trace.Drain()) {
    admits += std::string(span.name) == "admit";
    flushes += std::string(span.name) == "batch_flush";
  }
  trace.ResetForTest();
  // Rows 0, 16, 32 and 48 carry the latency clock and the admit span.
  EXPECT_EQ(admits, 4u);
  EXPECT_EQ(flushes, 4u);
}

TEST(BatcherTest, CoalescesSingleRowsIntoBatches) {
  auto service = MakeService(1);
  CollectingSink sink;
  constexpr size_t kMaxBatch = 64;
  Batcher batcher(service.get(), kMaxBatch, sink.AsSink());
  for (uint64_t i = 0; i < 1000; ++i) {
    batcher.Submit(MakeRequest(0, i));
    // No buffer outgrows one batch, and the submit that fills a batch has
    // delivered it before it returns.
    ASSERT_LT(batcher.queue_depth(), kMaxBatch);
    ASSERT_EQ(sink.responses, (i + 1) / kMaxBatch * kMaxBatch) << "after row " << i;
  }
  batcher.Flush();
  EXPECT_EQ(batcher.queue_depth(), 0u);
  EXPECT_EQ(sink.responses, 1000u);
  EXPECT_EQ(sink.failures, 0u);
  EXPECT_EQ(sink.duplicates, 0u);
  const MetricsSnapshot metrics = service->metrics().Snapshot();
  EXPECT_EQ(metrics.rows_repaired, 1000u);
  // 1000 rows at max_batch 64: 15 full caller-run batches + the flush
  // residue — far fewer executions than rows.
  EXPECT_EQ(metrics.batches, 16u);
  // Every 16th row is timed: rows 0, 16, ..., 992.
  EXPECT_EQ(metrics.latency_samples, (1000 + Batcher::kLatencySampleEvery - 1) /
                                         Batcher::kLatencySampleEvery);
}

TEST(BatcherTest, ZeroOptionsAreNormalized) {
  auto service = MakeService(3);
  Batcher batcher(service.get(), 0, nullptr);
  EXPECT_EQ(batcher.max_batch(), 1u);
}

TEST(BatcherTest, DestructorDeliversWhatIsPending) {
  auto service = MakeService(5);
  CollectingSink sink;
  {
    Batcher batcher(service.get(), 256, sink.AsSink());
    for (uint64_t i = 0; i < 10; ++i) batcher.Submit(MakeRequest(1, i));
    EXPECT_EQ(batcher.queue_depth(), 10u);
    EXPECT_EQ(sink.responses, 0u);
  }
  EXPECT_EQ(sink.responses, 10u);
  EXPECT_EQ(sink.failures, 0u);
  EXPECT_EQ(sink.seen.size(), 10u);
}

TEST(BatcherTest, InvalidRowsComeBackWithErrorStatus) {
  auto service = MakeService(7);
  CollectingSink sink;
  Batcher batcher(service.get(), 256, sink.AsSink());
  RowRequest bad = MakeRequest(0, 0);
  bad.features.push_back(1.0);  // wrong dimensionality
  batcher.Submit(std::move(bad));  // buffered: failure is per-row
  batcher.Flush();
  EXPECT_EQ(sink.responses, 1u);
  EXPECT_EQ(sink.failures, 1u);
  EXPECT_EQ(service->metrics().Snapshot().rows_invalid, 1u);
}

}  // namespace
}  // namespace otfair::serve
