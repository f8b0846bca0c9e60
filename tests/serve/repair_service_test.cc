// Serving-layer contract tests. The load-bearing ones:
//
//  - N concurrent sessions replaying a shuffled archive through the
//    batcher produce output bit-identical to OffSampleRepairer batch
//    repair per session, at any thread count, and across mid-stream
//    ReloadPlan() calls with an identical plan (the hot-swap acceptance
//    criterion).
//  - ReloadPlan under continuous traffic never drops or corrupts a
//    request.

#include "serve/repair_service.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "core/repairer.h"
#include "serve/batcher.h"
#include "sim/gaussian_mixture.h"

namespace otfair::serve {
namespace {

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
  core::RepairPlanSet plans;
};

Fixture MakeFixture(uint64_t seed, size_t archive_rows = 1500) {
  Fixture fx;
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(800, sim::GaussianSimConfig::PaperDefault(), rng);
  auto archive = sim::SimulateGaussianMixture(
      archive_rows, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok() && archive.ok());
  fx.research = std::move(*research);
  fx.archive = std::move(*archive);
  auto plans = core::DesignDistributionalRepair(fx.research, {});
  EXPECT_TRUE(plans.ok());
  fx.plans = std::move(*plans);
  return fx;
}

RowRequest ArchiveRequest(const data::Dataset& archive, uint64_t session, size_t row) {
  RowRequest request;
  request.session_id = session;
  request.row_index = row;
  request.u = archive.u(row);
  request.s = archive.s(row);
  request.features = archive.Row(row);
  return request;
}

/// The offline ground truth for one session: OffSampleRepairer batch
/// repair of the whole archive under the session's seed.
data::Dataset OfflineRepair(const Fixture& fx, const RepairService& service,
                            uint64_t session) {
  core::RepairOptions options;
  options.seed = service.SessionSeed(session);
  options.threads = 1;
  auto repairer = core::OffSampleRepairer::Create(fx.plans, options);
  EXPECT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  EXPECT_TRUE(repaired.ok());
  return std::move(*repaired);
}

TEST(RepairServiceTest, SingleRowsMatchOfflineBatchBitForBit) {
  Fixture fx = MakeFixture(1);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  const data::Dataset offline = OfflineRepair(fx, **service, 0);
  RowResponse response;
  for (size_t i = 0; i < fx.archive.size(); ++i) {
    ASSERT_TRUE((*service)->RepairRow(ArchiveRequest(fx.archive, 0, i), &response).ok());
    for (size_t k = 0; k < fx.archive.dim(); ++k)
      ASSERT_EQ(response.repaired[k], offline.feature(i, k)) << "row " << i << " k " << k;
  }
}

TEST(RepairServiceTest, SessionSeedContract) {
  Fixture fx = MakeFixture(2);
  ServiceOptions options;
  options.seed = 1234;
  auto service = RepairService::Create(fx.plans, options);
  ASSERT_TRUE(service.ok());
  // Session 0 is literally the offline batch seed; other sessions get
  // decorrelated sub-seeds, stable across calls.
  EXPECT_EQ((*service)->SessionSeed(0), 1234u);
  EXPECT_NE((*service)->SessionSeed(1), 1234u);
  EXPECT_EQ((*service)->SessionSeed(7), (*service)->SessionSeed(7));
  EXPECT_NE((*service)->SessionSeed(1), (*service)->SessionSeed(2));
}

TEST(RepairServiceTest, RepairBatchMatchesSingleRows) {
  Fixture fx = MakeFixture(3);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  std::vector<RowRequest> requests;
  for (size_t i = 0; i < 200; ++i) requests.push_back(ArchiveRequest(fx.archive, 5, i));
  std::vector<RowResponse> batch;
  (*service)->RepairBatch(requests.data(), requests.size(), &batch);
  RowResponse single;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].status.ok());
    ASSERT_TRUE((*service)->RepairRow(requests[i], &single).ok());
    EXPECT_EQ(batch[i].repaired, single.repaired) << "row " << i;
  }
}

/// The full determinism gauntlet: kSessions threads replay the archive in
/// per-session shuffled orders, each through a Batcher of its own over the
/// shared service and sink, while the main thread hot-swaps an identical
/// plan several times mid-stream. Every session's collected output must
/// equal its offline batch repair bit-for-bit, for every service thread
/// count.
void RunConcurrentReplay(int service_threads, bool reload_mid_stream) {
  Fixture fx = MakeFixture(4);
  ServiceOptions service_options;
  service_options.threads = service_threads;
  auto service = RepairService::Create(fx.plans, service_options);
  ASSERT_TRUE(service.ok());
  constexpr uint64_t kSessions = 4;
  const size_t rows = fx.archive.size();
  const size_t dim = fx.archive.dim();

  // Responses land here keyed by (session, row); the sink is concurrent.
  std::vector<std::vector<double>> collected(kSessions * rows);
  std::vector<std::atomic<int>> delivered(kSessions * rows);
  std::atomic<uint64_t> failures{0};
  const Batcher::Sink sink = [&](const RowResponse& response) {
    if (!response.status.ok()) {
      failures.fetch_add(1);
      return;
    }
    const size_t slot = response.session_id * rows + response.row_index;
    collected[slot] = response.repaired;
    delivered[slot].fetch_add(1);
  };

  std::atomic<bool> done{false};
  std::thread reloader;
  if (reload_mid_stream) {
    reloader = std::thread([&] {
      // Same plan, new snapshot: output must not change, nothing may drop.
      while (!done.load()) {
        EXPECT_TRUE((*service)->ReloadPlan(fx.plans).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<std::thread> sessions;
  for (uint64_t session = 0; session < kSessions; ++session) {
    sessions.emplace_back([&, session] {
      // Each session replays in its own shuffled order: determinism must
      // not depend on submission order.
      common::Rng order_rng(900 + session);
      const std::vector<size_t> order = order_rng.Permutation(rows);
      Batcher batcher(service->get(), 64, sink);
      for (const size_t row : order) batcher.Submit(ArchiveRequest(fx.archive, session, row));
      batcher.Flush();
    });
  }
  for (auto& t : sessions) t.join();
  done.store(true);
  if (reloader.joinable()) reloader.join();

  ASSERT_EQ(failures.load(), 0u);
  for (uint64_t session = 0; session < kSessions; ++session) {
    const data::Dataset offline = OfflineRepair(fx, **service, session);
    for (size_t i = 0; i < rows; ++i) {
      const size_t slot = session * rows + i;
      ASSERT_EQ(delivered[slot].load(), 1)
          << "session " << session << " row " << i << " delivered "
          << delivered[slot].load() << " times";
      for (size_t k = 0; k < dim; ++k)
        ASSERT_EQ(collected[slot][k], offline.feature(i, k))
            << "session " << session << " row " << i << " k " << k;
    }
  }
  if (reload_mid_stream) {
    EXPECT_GT((*service)->plan_version(), 1u);
  }
}

TEST(RepairServiceTest, ConcurrentShuffledSessionsMatchOfflineSerial) {
  RunConcurrentReplay(/*service_threads=*/1, /*reload_mid_stream=*/false);
}

TEST(RepairServiceTest, ConcurrentShuffledSessionsMatchOfflineParallel) {
  RunConcurrentReplay(/*service_threads=*/4, /*reload_mid_stream=*/false);
}

TEST(RepairServiceTest, HotSwapUnderTrafficDropsAndCorruptsNothing) {
  RunConcurrentReplay(/*service_threads=*/2, /*reload_mid_stream=*/true);
}

TEST(RepairServiceTest, ReloadRejectsMismatchedDim) {
  Fixture fx = MakeFixture(5);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  common::Rng rng(6);
  sim::GaussianSimConfig wide = sim::GaussianSimConfig::PaperDefault();
  wide.dim = 3;
  for (int u = 0; u <= 1; ++u)
    for (int s = 0; s <= 1; ++s) wide.mean[u][s].resize(3, 0.0);
  auto research = sim::SimulateGaussianMixture(600, wide, rng);
  ASSERT_TRUE(research.ok());
  auto other_plans = core::DesignDistributionalRepair(*research, {});
  ASSERT_TRUE(other_plans.ok());
  EXPECT_FALSE((*service)->ReloadPlan(std::move(*other_plans)).ok());
  EXPECT_EQ((*service)->plan_version(), 1u);  // failed reload does not swap
}

TEST(RepairServiceTest, ReloadBumpsVersionAndResetsDrift) {
  Fixture fx = MakeFixture(7);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  RowResponse response;
  for (size_t i = 0; i < 50; ++i)
    ASSERT_TRUE((*service)->RepairRow(ArchiveRequest(fx.archive, 0, i), &response).ok());
  EXPECT_GT((*service)->Health().values_observed, 0u);
  ASSERT_TRUE((*service)->ReloadPlan(fx.plans).ok());
  EXPECT_EQ((*service)->plan_version(), 2u);
  EXPECT_EQ((*service)->metrics().Snapshot().reloads, 1u);
  // Drift restarts against the freshly installed design.
  EXPECT_EQ((*service)->Health().values_observed, 0u);
}

TEST(RepairServiceTest, DriftHealthFlagsShiftedTraffic) {
  Fixture fx = MakeFixture(8, /*archive_rows=*/3000);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE((*service)->Health().drifted);
  // Stream a shifted mixture: every channel moves by 2 sigma.
  common::Rng rng(9);
  std::vector<RowRequest> requests;
  for (size_t i = 0; i < 3000; ++i) {
    RowRequest request = ArchiveRequest(fx.archive, 0, i);
    for (double& x : request.features) x += 2.0;
    requests.push_back(std::move(request));
  }
  std::vector<RowResponse> responses;
  (*service)->RepairBatch(requests.data(), requests.size(), &responses);
  const ServiceHealth health = (*service)->Health();
  EXPECT_TRUE(health.drifted);
  EXPECT_GT(health.worst_w1, 0.1);
  EXPECT_EQ(health.values_observed, 3000u * fx.archive.dim());
  const core::DriftReport report = (*service)->DriftSnapshot();
  EXPECT_TRUE(report.drifted);
  // JSON surfaces the verdict for the health endpoint.
  EXPECT_NE(health.ToJson().find("\"drifted\":true"), std::string::npos);
}

TEST(RepairServiceTest, InvalidRowsReportPerRowStatus) {
  Fixture fx = MakeFixture(10);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  RowRequest bad_dim = ArchiveRequest(fx.archive, 0, 0);
  bad_dim.features.pop_back();
  RowRequest bad_label = ArchiveRequest(fx.archive, 0, 1);
  bad_label.u = 2;
  RowRequest good = ArchiveRequest(fx.archive, 0, 2);
  RowRequest bad_value = ArchiveRequest(fx.archive, 0, 3);
  bad_value.features[1] = std::numeric_limits<double>::quiet_NaN();
  std::vector<RowRequest> requests;
  requests.push_back(std::move(bad_dim));
  requests.push_back(std::move(bad_label));
  requests.push_back(std::move(good));
  requests.push_back(std::move(bad_value));
  std::vector<RowResponse> responses;
  (*service)->RepairBatch(requests.data(), requests.size(), &responses);
  EXPECT_EQ(responses[0].status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[1].status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[3].status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[3].repaired.empty());
  const MetricsSnapshot metrics = (*service)->metrics().Snapshot();
  EXPECT_EQ(metrics.rows_invalid, 3u);
  EXPECT_EQ(metrics.rows_repaired, 1u);
  // Invalid rows must not pollute the channel sketches.
  EXPECT_EQ((*service)->Health().values_observed, fx.archive.dim());
}

TEST(RepairServiceTest, ConcurrentReloadsAreMonotoneAndLastWriterWins) {
  // The documented concurrent-reload contract: calls serialize, every
  // successful call installs a strictly greater version (no torn or
  // reordered installs), and observed versions never decrease.
  Fixture fx = MakeFixture(12);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  constexpr int kThreads = 4;
  constexpr int kReloadsPerThread = 25;
  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> monotonicity_violations{0};
  // A watcher hammers plan_version() and Health() during the storm: the
  // version must be non-decreasing from any single observer's viewpoint.
  std::thread watcher([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t v = (*service)->plan_version();
      if (v < last) monotonicity_violations.fetch_add(1);
      last = v;
      // Health snapshots ride the same atomic: never older than a version
      // this observer already saw.
      const ServiceHealth h = (*service)->Health();
      if (h.plan_version < last) monotonicity_violations.fetch_add(1);
      last = h.plan_version;
    }
  });
  std::vector<std::thread> reloaders;
  for (int t = 0; t < kThreads; ++t) {
    reloaders.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kReloadsPerThread; ++i)
        EXPECT_TRUE((*service)->ReloadPlan(fx.plans).ok());
    });
  }
  start.store(true);
  for (auto& t : reloaders) t.join();
  done.store(true);
  watcher.join();
  EXPECT_EQ(monotonicity_violations.load(), 0u);
  // Every successful reload got its own version; the final state is the
  // last writer's install.
  EXPECT_EQ((*service)->plan_version(), 1u + kThreads * kReloadsPerThread);
  const ServiceHealth health = (*service)->Health();
  EXPECT_EQ(health.reloads_total, static_cast<uint64_t>(kThreads * kReloadsPerThread));
  EXPECT_EQ(health.reloads_failed, 0u);
}

TEST(RepairServiceTest, FailedReloadCountsAndKeepsServingVersion) {
  Fixture fx = MakeFixture(13);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  // A dim-mismatched plan is rejected: version unchanged, failure counted,
  // and the health JSON carries both reload counters.
  common::Rng rng(14);
  sim::GaussianSimConfig wide = sim::GaussianSimConfig::PaperDefault();
  wide.dim = 3;
  for (int u = 0; u <= 1; ++u)
    for (int s = 0; s <= 1; ++s) wide.mean[u][s].resize(3, 0.0);
  auto research = sim::SimulateGaussianMixture(600, wide, rng);
  ASSERT_TRUE(research.ok());
  auto bad_plans = core::DesignDistributionalRepair(*research, {});
  ASSERT_TRUE(bad_plans.ok());
  EXPECT_FALSE((*service)->ReloadPlan(std::move(*bad_plans)).ok());
  ASSERT_TRUE((*service)->ReloadPlan(fx.plans).ok());
  const ServiceHealth health = (*service)->Health();
  EXPECT_EQ(health.plan_version, 2u);
  EXPECT_EQ(health.reloads_total, 1u);
  EXPECT_EQ(health.reloads_failed, 1u);
  const std::string json = health.ToJson();
  EXPECT_NE(json.find("\"reloads_total\":1"), std::string::npos);
  EXPECT_NE(json.find("\"reloads_failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"healthy\""), std::string::npos);
}

TEST(RepairServiceTest, SuccessfulReloadClearsDegraded) {
  Fixture fx = MakeFixture(15);
  auto service = RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  (*service)->SetDegraded(true);
  EXPECT_STREQ((*service)->Health().state(), "degraded");
  EXPECT_NE((*service)->Health().ToJson().find("\"state\":\"degraded\""),
            std::string::npos);
  ASSERT_TRUE((*service)->ReloadPlan(fx.plans).ok());
  EXPECT_FALSE((*service)->degraded());
  EXPECT_STREQ((*service)->Health().state(), "healthy");
}

TEST(RepairServiceTest, SketchesAccumulatePerChannelAndResetOnReload) {
  Fixture fx = MakeFixture(16);
  auto service = RepairService::Create(fx.plans);
  ASSERT_TRUE(service.ok());
  const size_t dim = fx.archive.dim();
  std::vector<RowRequest> requests;
  for (size_t i = 0; i < 500; ++i) requests.push_back(ArchiveRequest(fx.archive, 0, i));
  std::vector<RowResponse> responses;
  (*service)->RepairBatch(requests.data(), requests.size(), &responses);
  const auto sketches = (*service)->SketchSnapshot();
  ASSERT_EQ(sketches.size(), 2 * 2 * dim);  // (u, s, k) channels
  uint64_t total = 0;
  for (const auto& sketch : sketches) total += sketch.count();
  EXPECT_EQ(total, 500 * dim);  // every row sketched exactly once
  // Reload restarts the sketches.
  ASSERT_TRUE((*service)->ReloadPlan(fx.plans).ok());
  for (const auto& sketch : (*service)->SketchSnapshot()) EXPECT_EQ(sketch.count(), 0u);
}

TEST(RepairServiceTest, ConcurrentBatchesAccountLikeOneThread) {
  // Four threads repair disjoint slices of a drifted archive in small
  // batches. The drift report and the channel sketches must equal those
  // of one thread observing the same rows: every row counted once,
  // whatever order the batches landed in.
  Fixture fx = MakeFixture(19, /*archive_rows=*/4000);
  const size_t rows = fx.archive.size();
  const size_t dim = fx.archive.dim();
  const size_t s_levels = fx.plans.s_levels();
  std::vector<RowRequest> requests;
  for (size_t i = 0; i < rows; ++i) {
    RowRequest request = ArchiveRequest(fx.archive, 0, i);
    for (double& x : request.features) x += 1.5;  // partly off the design grid
    requests.push_back(std::move(request));
  }
  auto service = RepairService::Create(fx.plans);
  ASSERT_TRUE(service.ok());
  constexpr size_t kThreads = 4;
  constexpr size_t kBatch = 64;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<RowResponse> responses;
      const size_t begin = rows * t / kThreads;
      const size_t end = rows * (t + 1) / kThreads;
      for (size_t i = begin; i < end; i += kBatch)
        (*service)->RepairBatch(requests.data() + i, std::min(kBatch, end - i), &responses);
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<stats::QuantileSketch> sketches(fx.plans.u_levels() * s_levels * dim);
  for (const RowRequest& request : requests) {
    const size_t base =
        (static_cast<size_t>(request.u) * s_levels + static_cast<size_t>(request.s)) * dim;
    for (size_t k = 0; k < dim; ++k) sketches[base + k].Add(request.features[k]);
  }
  auto expected = core::JudgeDrift(fx.plans, sketches);
  ASSERT_TRUE(expected.ok());
  const core::DriftReport actual = (*service)->DriftSnapshot();
  EXPECT_TRUE(expected->drifted);
  ASSERT_EQ(actual.channels.size(), expected->channels.size());
  for (size_t c = 0; c < expected->channels.size(); ++c) {
    EXPECT_EQ(actual.channels[c].count, expected->channels[c].count) << "channel " << c;
    EXPECT_EQ(actual.channels[c].out_of_range_rate, expected->channels[c].out_of_range_rate)
        << "channel " << c;
    EXPECT_EQ(actual.channels[c].w1_normalized, expected->channels[c].w1_normalized)
        << "channel " << c;
  }
  const std::vector<stats::QuantileSketch> served = (*service)->SketchSnapshot();
  ASSERT_EQ(served.size(), sketches.size());
  for (size_t c = 0; c < sketches.size(); ++c) {
    EXPECT_EQ(served[c].count(), sketches[c].count()) << "channel " << c;
    for (const double p : {0.1, 0.5, 0.9})
      EXPECT_EQ(served[c].Quantile(p), sketches[c].Quantile(p)) << "channel " << c << " p " << p;
  }
}

TEST(RepairServiceTest, RejectsBadOptions) {
  Fixture fx = MakeFixture(11);
  ServiceOptions zero_version;
  zero_version.initial_plan_version = 0;
  EXPECT_EQ(RepairService::Create(fx.plans, zero_version).status().code(),
            common::StatusCode::kInvalidArgument);
  ServiceOptions strong;
  strong.strength = 1.5;
  EXPECT_EQ(RepairService::Create(fx.plans, strong).status().code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace otfair::serve
