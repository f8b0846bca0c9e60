#include "core/drift_monitor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/rng.h"
#include "core/designer.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

struct Fixture {
  data::Dataset research;
  RepairPlanSet plans;
  sim::GaussianSimConfig config;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture fx;
  fx.config = sim::GaussianSimConfig::PaperDefault();
  common::Rng rng(seed);
  auto research = sim::SimulateGaussianMixture(1000, fx.config, rng);
  EXPECT_TRUE(research.ok());
  fx.research = std::move(*research);
  auto plans = DesignDistributionalRepair(fx.research, {});
  EXPECT_TRUE(plans.ok());
  fx.plans = std::move(*plans);
  return fx;
}

/// Streams `n` draws from the configured mixture (optionally shifted) into
/// the monitor.
void StreamMixture(DriftMonitor& monitor, const sim::GaussianSimConfig& config, size_t n,
                   double shift, common::Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    const int u = rng.Bernoulli(config.pr_u0) ? 0 : 1;
    const double pr_s0 = (u == 0) ? config.pr_s0_given_u0 : config.pr_s0_given_u1;
    const int s = rng.Bernoulli(pr_s0) ? 0 : 1;
    for (size_t k = 0; k < 2; ++k) {
      monitor.Observe(u, s, k, rng.Normal(config.mean[u][s][k] + shift, config.sigma));
    }
  }
}

TEST(DriftMonitorTest, StationaryStreamNotFlagged) {
  Fixture fx = MakeFixture(1);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  common::Rng rng(2);
  StreamMixture(*monitor, fx.config, 20000, 0.0, rng);
  const DriftReport report = monitor->Report();
  EXPECT_FALSE(report.drifted) << report.ToString();
  EXPECT_LT(report.worst_w1, 0.1);
}

TEST(DriftMonitorTest, ShiftedStreamFlagged) {
  Fixture fx = MakeFixture(3);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  common::Rng rng(4);
  StreamMixture(*monitor, fx.config, 20000, 1.5, rng);  // 1.5 sigma shift
  const DriftReport report = monitor->Report();
  EXPECT_TRUE(report.drifted) << report.ToString();
  EXPECT_GT(report.worst_w1, 0.1);
}

TEST(DriftMonitorTest, OutOfRangeRateDetected) {
  Fixture fx = MakeFixture(5);
  DriftMonitorOptions options;
  options.w1_threshold = 10.0;  // isolate the out-of-range signal
  auto monitor = DriftMonitor::Create(fx.plans, options);
  ASSERT_TRUE(monitor.ok());
  common::Rng rng(6);
  StreamMixture(*monitor, fx.config, 5000, 6.0, rng);  // way outside the grid
  const DriftReport report = monitor->Report();
  EXPECT_TRUE(report.drifted);
  EXPECT_GT(report.worst_out_of_range, 0.05);
}

TEST(DriftMonitorTest, SmallCountsNotJudged) {
  Fixture fx = MakeFixture(7);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  // A handful of wildly shifted values must not trip the alarm yet.
  for (int i = 0; i < 20; ++i) monitor->Observe(0, 0, 0, 100.0);
  EXPECT_FALSE(monitor->Report().drifted);
}

TEST(DriftMonitorTest, PerChannelBreakdownExposed) {
  Fixture fx = MakeFixture(8);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  common::Rng rng(9);
  // Drift only channel (u=0, s=0, k=1).
  for (int i = 0; i < 5000; ++i) {
    monitor->Observe(0, 0, 0, rng.Normal(-1.0, 1.0));         // on-distribution
    monitor->Observe(0, 0, 1, rng.Normal(-1.0 + 2.0, 1.0));   // shifted
  }
  const DriftReport report = monitor->Report();
  double drifted_w1 = -1.0;
  double clean_w1 = -1.0;
  for (const ChannelDrift& c : report.channels) {
    if (c.u == 0 && c.s == 0 && c.k == 1) drifted_w1 = c.w1_normalized;
    if (c.u == 0 && c.s == 0 && c.k == 0) clean_w1 = c.w1_normalized;
  }
  EXPECT_GT(drifted_w1, 3.0 * clean_w1);
}

TEST(DriftMonitorTest, ResetClearsState) {
  Fixture fx = MakeFixture(10);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  common::Rng rng(11);
  StreamMixture(*monitor, fx.config, 5000, 2.0, rng);
  EXPECT_TRUE(monitor->Report().drifted);
  monitor->Reset();
  const DriftReport report = monitor->Report();
  EXPECT_FALSE(report.drifted);
  for (const ChannelDrift& c : report.channels) EXPECT_EQ(c.count, 0u);
}

TEST(DriftMonitorTest, ReportRendering) {
  Fixture fx = MakeFixture(12);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  const std::string text = monitor->Report().ToString();
  EXPECT_NE(text.find("stationary"), std::string::npos);
  EXPECT_NE(text.find("(u=0, s=0, k=0)"), std::string::npos);
}

TEST(DriftMonitorTest, RejectsBadOptions) {
  Fixture fx = MakeFixture(13);
  DriftMonitorOptions options;
  options.min_count = 0;
  EXPECT_FALSE(DriftMonitor::Create(fx.plans, options).ok());
}

void ExpectReportsIdentical(const DriftReport& a, const DriftReport& b) {
  EXPECT_EQ(a.drifted, b.drifted);
  EXPECT_EQ(a.worst_w1, b.worst_w1);
  EXPECT_EQ(a.worst_out_of_range, b.worst_out_of_range);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].count, b.channels[i].count);
    // Exact equality is the point: integer counts plus an identical W1
    // summation order mean incremental accumulation must be bit-equal.
    EXPECT_EQ(a.channels[i].w1_normalized, b.channels[i].w1_normalized);
    EXPECT_EQ(a.channels[i].out_of_range_rate, b.channels[i].out_of_range_rate);
  }
}

TEST(DriftMonitorTest, IncrementalSnapshotsReproduceOneShotReport) {
  // The serving layer observes in micro-batches and snapshots between
  // them; the final judgement must match the single batch run exactly.
  Fixture fx = MakeFixture(14);
  auto one_shot = DriftMonitor::Create(fx.plans);
  auto incremental = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(one_shot.ok() && incremental.ok());
  common::Rng rng_a(15);
  common::Rng rng_b(15);
  StreamMixture(*one_shot, fx.config, 10000, 0.7, rng_a);
  size_t left = 10000;
  while (left > 0) {
    const size_t chunk = std::min<size_t>(left, 37);
    StreamMixture(*incremental, fx.config, chunk, 0.7, rng_b);
    incremental->Report();  // snapshots must not disturb state
    left -= chunk;
  }
  ExpectReportsIdentical(one_shot->Report(), incremental->Report());
}

TEST(DriftMonitorSerializationTest, CountsRoundTripReproducesReportExactly) {
  Fixture fx = MakeFixture(20);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  common::Rng rng(20);
  StreamMixture(*monitor, fx.config, 3000, 0.7, rng);

  std::string bytes;
  common::ByteWriter writer(&bytes);
  monitor->SerializeCounts(writer);

  // Restore into a FRESH monitor of the same geometry: addition into
  // zeros is an exact restore.
  auto restored = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(restored.ok());
  common::ByteReader reader(bytes);
  ASSERT_TRUE(restored->RestoreCounts(reader).ok());
  EXPECT_TRUE(reader.exhausted());

  const DriftReport before = monitor->Report();
  const DriftReport after = restored->Report();
  EXPECT_EQ(after.drifted, before.drifted);
  EXPECT_EQ(after.worst_w1, before.worst_w1);
  EXPECT_EQ(after.worst_out_of_range, before.worst_out_of_range);
  ASSERT_EQ(after.channels.size(), before.channels.size());
  for (size_t i = 0; i < before.channels.size(); ++i) {
    EXPECT_EQ(after.channels[i].count, before.channels[i].count);
    EXPECT_EQ(after.channels[i].w1_normalized, before.channels[i].w1_normalized);
    EXPECT_EQ(after.channels[i].out_of_range_rate, before.channels[i].out_of_range_rate);
  }
}

TEST(DriftMonitorSerializationTest, RestoreRejectsMismatchedGeometryAndCorruptPayloads) {
  Fixture fx = MakeFixture(21);
  auto monitor = DriftMonitor::Create(fx.plans);
  ASSERT_TRUE(monitor.ok());
  common::Rng rng(21);
  StreamMixture(*monitor, fx.config, 500, 0.0, rng);
  std::string bytes;
  common::ByteWriter writer(&bytes);
  monitor->SerializeCounts(writer);

  // A monitor with different grids must refuse the payload (the counts
  // would be reinterpreted against the wrong design distribution).
  Fixture other = MakeFixture(22);
  auto mismatched = DriftMonitor::Create(other.plans);
  ASSERT_TRUE(mismatched.ok());
  {
    common::ByteReader reader(bytes);
    EXPECT_FALSE(mismatched->RestoreCounts(reader).ok());
  }
  // Truncations fail without mutating the target.
  for (size_t len : {size_t{0}, bytes.size() / 3, bytes.size() - 1}) {
    auto target = DriftMonitor::Create(fx.plans);
    ASSERT_TRUE(target.ok());
    common::ByteReader reader(bytes.data(), len);
    EXPECT_FALSE(target->RestoreCounts(reader).ok()) << "prefix " << len;
    uint64_t observed = 0;
    for (const auto& channel : target->Report().channels)
      observed += channel.count;
    EXPECT_EQ(observed, 0u) << "prefix " << len << " left a partial restore";
  }
}

}  // namespace
}  // namespace otfair::core
