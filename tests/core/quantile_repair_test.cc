#include "core/quantile_repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "core/label_estimator.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "sim/gaussian_mixture.h"
#include "stats/descriptive.h"

namespace otfair::core {
namespace {

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
  RepairPlanSet plans;
};

Fixture MakeFixture(uint64_t seed, size_t n_research = 800, size_t n_archive = 4000) {
  common::Rng rng(seed);
  const auto config = sim::GaussianSimConfig::PaperDefault();
  auto research = sim::SimulateGaussianMixture(n_research, config, rng);
  auto archive = sim::SimulateGaussianMixture(n_archive, config, rng);
  EXPECT_TRUE(research.ok() && archive.ok());
  auto plans = DesignDistributionalRepair(*research, {});
  EXPECT_TRUE(plans.ok());
  return Fixture{std::move(*research), std::move(*archive), std::move(*plans)};
}

TEST(QuantileRepairTest, DeterministicNoRngConsumed) {
  Fixture fx = MakeFixture(1);
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  for (double x : {-2.0, -0.5, 0.0, 1.3, 2.2}) {
    EXPECT_DOUBLE_EQ(repairer->RepairValue(0, 0, 0, x), repairer->RepairValue(0, 0, 0, x));
  }
}

TEST(QuantileRepairTest, MonotoneInInput) {
  // The Monge-map property the paper's §VI highlights: order preserved.
  Fixture fx = MakeFixture(2);
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  for (int u = 0; u <= 1; ++u) {
    for (int s = 0; s <= 1; ++s) {
      for (size_t k = 0; k < 2; ++k) {
        double prev = repairer->RepairValue(u, s, k, -5.0);
        for (double x = -4.9; x <= 5.0; x += 0.05) {
          const double cur = repairer->RepairValue(u, s, k, x);
          EXPECT_GE(cur, prev - 1e-12) << "u=" << u << " s=" << s << " k=" << k << " x=" << x;
          prev = cur;
        }
      }
    }
  }
}

TEST(QuantileRepairTest, IndividualFairnessSimilarInputsSimilarOutputs) {
  // Continuity: nearby inputs map to nearby outputs (no grid snapping).
  Fixture fx = MakeFixture(3);
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  const auto& grid = fx.plans.At(0, 0).grid;
  const double interior_lo = grid.lo() + 0.2 * (grid.hi() - grid.lo());
  const double interior_hi = grid.lo() + 0.8 * (grid.hi() - grid.lo());
  common::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const double x = rng.Uniform(interior_lo, interior_hi);
    const double eps = 1e-4;
    const double gap =
        std::fabs(repairer->RepairValue(0, 1, 0, x + eps) - repairer->RepairValue(0, 1, 0, x));
    // Lipschitz-ish bound: the interpolated map's slope is bounded by the
    // ratio of the largest target cell to the smallest populated source
    // cell mass; generous envelope here.
    EXPECT_LT(gap, 0.5) << "x=" << x;
  }
}

TEST(QuantileRepairTest, QuenchesConditionalDependence) {
  Fixture fx = MakeFixture(5);
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  auto before = fairness::AggregateE(fx.archive);
  auto after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_LT(*after, *before / 5.0);
}

TEST(QuantileRepairTest, PushforwardMatchesBarycenterMoments) {
  Fixture fx = MakeFixture(6, 2000, 1);
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  const ChannelPlan& channel = fx.plans.At(0, 0);
  common::Rng rng(7);
  std::vector<double> outputs;
  for (int i = 0; i < 20000; ++i) {
    outputs.push_back(repairer->RepairValue(0, 0, 0, rng.Normal(-1.0, 1.0)));
  }
  EXPECT_NEAR(stats::Mean(outputs), channel.barycenter.Mean(), 0.08);
  EXPECT_NEAR(stats::Variance(outputs), channel.barycenter.Variance(), 0.25);
}

TEST(QuantileRepairTest, ComparableToStochasticRepair) {
  Fixture fx = MakeFixture(8);
  auto monge = QuantileMapRepairer::Create(fx.plans);
  auto stochastic = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(monge.ok() && stochastic.ok());
  auto repaired_monge = monge->RepairDataset(fx.archive);
  auto repaired_stochastic = stochastic->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired_monge.ok() && repaired_stochastic.ok());
  auto e_monge = fairness::AggregateE(*repaired_monge);
  auto e_stochastic = fairness::AggregateE(*repaired_stochastic);
  ASSERT_TRUE(e_monge.ok() && e_stochastic.ok());
  // Both should quench dependence to the same order.
  EXPECT_LT(*e_monge, 3.0 * *e_stochastic + 0.05);
}

TEST(QuantileRepairTest, ZeroStrengthIsIdentity) {
  Fixture fx = MakeFixture(9);
  auto repairer = QuantileMapRepairer::Create(fx.plans, 0.0);
  ASSERT_TRUE(repairer.ok());
  for (double x : {-1.0, 0.0, 2.5}) {
    EXPECT_DOUBLE_EQ(repairer->RepairValue(1, 1, 1, x), x);
  }
}

TEST(QuantileRepairTest, SoftRepairInterpolatesClassMaps) {
  Fixture fx = MakeFixture(10);
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  const double x = 0.3;
  const double t0 = repairer->RepairValue(0, 0, 0, x);
  const double t1 = repairer->RepairValue(0, 1, 0, x);
  EXPECT_DOUBLE_EQ(repairer->RepairValueSoft(0, 0.0, 0, x), t0);
  EXPECT_DOUBLE_EQ(repairer->RepairValueSoft(0, 1.0, 0, x), t1);
  EXPECT_DOUBLE_EQ(repairer->RepairValueSoft(0, 0.5, 0, x), 0.5 * (t0 + t1));
}

TEST(QuantileRepairTest, SoftDatasetRepairWithPosteriors) {
  Fixture fx = MakeFixture(11, 2000, 4000);
  auto estimator = LabelEstimator::Fit(fx.research);
  ASSERT_TRUE(estimator.ok());
  auto posteriors = estimator->PosteriorsS1(fx.archive);
  ASSERT_TRUE(posteriors.ok());
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDatasetSoft(fx.archive, *posteriors);
  ASSERT_TRUE(repaired.ok());
  auto before = fairness::AggregateE(fx.archive);
  auto after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(before.ok() && after.ok());
  // The paper's components overlap heavily, so GMM posteriors are noisy
  // (~70-75% MAP accuracy) and the posterior-averaged map retains part of
  // the class difference; the repair must still clearly help.
  EXPECT_LT(*after, *before * 0.8);
}

TEST(QuantileRepairTest, RejectsBadInputs) {
  Fixture fx = MakeFixture(12, 300, 300);
  EXPECT_FALSE(QuantileMapRepairer::Create(fx.plans, 1.5).ok());
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  EXPECT_FALSE(
      repairer->RepairDatasetWithLabels(fx.archive, std::vector<int>(3, 0)).ok());
  EXPECT_FALSE(
      repairer->RepairDatasetSoft(fx.archive, std::vector<double>(fx.archive.size(), 2.0))
          .ok());
  // A non-finite feature has no place on the CDF tables: the batch entry
  // points refuse it, and the per-value ones CHECK-fail. The design above
  // started pool threads, so the death tests re-execute rather than fork.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> pr_s1(fx.archive.size(), 0.5);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    data::Dataset poisoned = fx.archive.Clone();
    poisoned.set_feature(fx.archive.size() / 2, 1, bad);
    EXPECT_EQ(repairer->RepairDataset(poisoned).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(repairer->RepairDatasetSoft(poisoned, pr_s1).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_DEATH(repairer->RepairValue(0, 0, 1, bad), "finite");
    EXPECT_DEATH(repairer->RepairValueSoft(0, 0.5, 1, bad), "finite");
  }
}

TEST(QuantileRepairTest, OutOfRangeInputsClampToTargetRange) {
  Fixture fx = MakeFixture(13);
  auto repairer = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(repairer.ok());
  const auto& channel = fx.plans.At(0, 0);
  const double below = repairer->RepairValue(0, 0, 0, channel.grid.lo() - 100.0);
  const double above = repairer->RepairValue(0, 0, 0, channel.grid.hi() + 100.0);
  EXPECT_GE(below, channel.grid.lo());
  EXPECT_LE(above, channel.grid.hi());
  EXPECT_LT(below, above);
}

}  // namespace
}  // namespace otfair::core
