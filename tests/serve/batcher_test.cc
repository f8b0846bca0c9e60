#include "serve/batcher.h"

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
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

/// Thread-safe sink collecting every delivered (session, row) exactly once.
struct CollectingSink {
  std::mutex mu;
  std::set<std::pair<uint64_t, uint64_t>> seen;
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> duplicates{0};

  Batcher::Sink AsSink() {
    return [this](const RowResponse& response) {
      responses.fetch_add(1);
      if (!response.status.ok()) failures.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      if (!seen.insert({response.session_id, response.row_index}).second)
        duplicates.fetch_add(1);
    };
  }
};

TEST(BatcherTest, CoalescesSingleRowsIntoBatches) {
  auto service = MakeService(1);
  CollectingSink sink;
  BatcherOptions options;
  options.max_batch = 64;
  Batcher batcher(service.get(), options, sink.AsSink());
  for (uint64_t i = 0; i < 1000; ++i)
    ASSERT_TRUE(batcher.Submit(MakeRequest(0, i)).ok());
  batcher.Flush();
  EXPECT_EQ(sink.responses.load(), 1000u);
  EXPECT_EQ(sink.failures.load(), 0u);
  EXPECT_EQ(sink.duplicates.load(), 0u);
  const MetricsSnapshot metrics = service->metrics().Snapshot();
  EXPECT_EQ(metrics.rows_repaired, 1000u);
  // 1000 rows at max_batch 64: 15 full caller-run batches + the flush
  // residue — far fewer executions than rows.
  EXPECT_LE(metrics.batches, 17u);
  EXPECT_GE(metrics.batches, 16u);
}

TEST(BatcherTest, BackpressureRejectsWhenQueueFull) {
  auto service = MakeService(2);
  CollectingSink sink;
  BatcherOptions options;
  options.max_batch = 128;  // never fills from 4 rows -> queue backs up
  options.max_queue_depth = 4;
  Batcher batcher(service.get(), options, sink.AsSink());
  for (uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(batcher.Submit(MakeRequest(0, i)).ok());
  RowRequest rejected = MakeRequest(0, 999);
  const common::Status status = batcher.Submit(std::move(rejected));
  EXPECT_EQ(status.code(), common::StatusCode::kUnavailable);
  // The request is handed back intact for a retry.
  EXPECT_EQ(rejected.features.size(), 2u);
  EXPECT_EQ(service->metrics().Snapshot().rows_rejected, 1u);
  batcher.Flush();
  EXPECT_TRUE(batcher.Submit(std::move(rejected)).ok());
  batcher.Flush();
  EXPECT_EQ(sink.failures.load(), 0u);
  EXPECT_EQ(sink.responses.load(), 5u);
}

TEST(BatcherTest, ZeroOptionsAreNormalized) {
  auto service = MakeService(3);
  BatcherOptions options;
  options.max_batch = 0;
  options.max_queue_depth = 0;
  Batcher batcher(service.get(), options, nullptr);
  EXPECT_EQ(batcher.options().max_batch, 1u);
  EXPECT_EQ(batcher.options().max_queue_depth, 1u);
}

TEST(BatcherTest, CloseDrainsEverythingAndRejectsAfter) {
  auto service = MakeService(5);
  CollectingSink sink;
  BatcherOptions options;
  options.max_batch = 256;
  Batcher batcher(service.get(), options, sink.AsSink());
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(batcher.Submit(MakeRequest(1, i)).ok());
  batcher.Close();
  EXPECT_EQ(sink.responses.load(), 10u);
  EXPECT_EQ(batcher.Submit(MakeRequest(1, 11)).code(), common::StatusCode::kUnavailable);
  batcher.Close();  // idempotent
  EXPECT_EQ(sink.responses.load(), 10u);
}

TEST(BatcherTest, ConcurrentProducersEveryRowDeliveredOnce) {
  auto service = MakeService(6);
  CollectingSink sink;
  BatcherOptions options;
  options.max_batch = 32;
  options.max_queue_depth = 64;
  Batcher batcher(service.get(), options, sink.AsSink());
  constexpr uint64_t kSessions = 4;
  constexpr uint64_t kRows = 500;
  std::vector<std::thread> producers;
  for (uint64_t session = 0; session < kSessions; ++session) {
    producers.emplace_back([&, session] {
      for (uint64_t i = 0; i < kRows; ++i) {
        RowRequest request = MakeRequest(session, i);
        while (true) {
          if (batcher.Submit(std::move(request)).ok()) break;
          batcher.Flush();  // backpressure: help drain, then retry
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  batcher.Close();
  EXPECT_EQ(sink.responses.load(), kSessions * kRows);
  EXPECT_EQ(sink.duplicates.load(), 0u);
  EXPECT_EQ(sink.failures.load(), 0u);
  EXPECT_EQ(sink.seen.size(), kSessions * kRows);
}

TEST(BatcherTest, InvalidRowsComeBackWithErrorStatus) {
  auto service = MakeService(7);
  CollectingSink sink;
  Batcher batcher(service.get(), {}, sink.AsSink());
  RowRequest bad = MakeRequest(0, 0);
  bad.features.push_back(1.0);  // wrong dimensionality
  ASSERT_TRUE(batcher.Submit(std::move(bad)).ok());  // accepted: failure is per-row
  batcher.Flush();
  EXPECT_EQ(sink.responses.load(), 1u);
  EXPECT_EQ(sink.failures.load(), 1u);
  EXPECT_EQ(service->metrics().Snapshot().rows_invalid, 1u);
}

}  // namespace
}  // namespace otfair::serve
