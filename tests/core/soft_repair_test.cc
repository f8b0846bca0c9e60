// Tests for soft-label (probabilistic protected attribute) repair on the
// stochastic repairer, plus the LabelEstimator posterior API they consume.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "core/label_estimator.h"
#include "core/quantile_repair.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
  RepairPlanSet plans;
};

Fixture MakeFixture(uint64_t seed, size_t n_research = 1500, size_t n_archive = 4000) {
  common::Rng rng(seed);
  const auto config = sim::GaussianSimConfig::PaperDefault();
  auto research = sim::SimulateGaussianMixture(n_research, config, rng);
  auto archive = sim::SimulateGaussianMixture(n_archive, config, rng);
  EXPECT_TRUE(research.ok() && archive.ok());
  auto plans = DesignDistributionalRepair(*research, {});
  EXPECT_TRUE(plans.ok());
  return Fixture{std::move(*research), std::move(*archive), std::move(*plans)};
}

TEST(PosteriorTest, SumsWithComplement) {
  Fixture fx = MakeFixture(1);
  auto estimator = LabelEstimator::Fit(fx.research);
  ASSERT_TRUE(estimator.ok());
  for (size_t i = 0; i < 50; ++i) {
    const double p1 = estimator->PosteriorS1(fx.archive.u(i), fx.archive.Row(i));
    EXPECT_GE(p1, 0.0);
    EXPECT_LE(p1, 1.0);
  }
}

TEST(PosteriorTest, ConsistentWithMapEstimate) {
  Fixture fx = MakeFixture(2);
  auto estimator = LabelEstimator::Fit(fx.research);
  ASSERT_TRUE(estimator.ok());
  for (size_t i = 0; i < 200; ++i) {
    const auto row = fx.archive.Row(i);
    const double p1 = estimator->PosteriorS1(fx.archive.u(i), row);
    const int map = estimator->EstimateOne(fx.archive.u(i), row);
    EXPECT_EQ(map, p1 >= 0.5 ? 1 : 0);
  }
}

TEST(PosteriorTest, BatchMatchesPointwise) {
  Fixture fx = MakeFixture(3);
  auto estimator = LabelEstimator::Fit(fx.research);
  ASSERT_TRUE(estimator.ok());
  auto batch = estimator->PosteriorsS1(fx.archive);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), fx.archive.size());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ((*batch)[i],
                     estimator->PosteriorS1(fx.archive.u(i), fx.archive.Row(i)));
  }
}

TEST(SoftRepairTest, DegeneratePosteriorsMatchHardRepair) {
  Fixture fx = MakeFixture(4, 800, 500);
  RepairOptions options;
  options.seed = 99;
  auto hard = OffSampleRepairer::Create(fx.plans, options);
  auto soft = OffSampleRepairer::Create(fx.plans, options);
  ASSERT_TRUE(hard.ok() && soft.ok());
  std::vector<double> certain;
  for (size_t i = 0; i < fx.archive.size(); ++i)
    certain.push_back(static_cast<double>(fx.archive.s(i)));
  auto repaired_hard = hard->RepairDataset(fx.archive);
  auto repaired_soft = soft->RepairDatasetSoft(fx.archive, certain);
  ASSERT_TRUE(repaired_hard.ok() && repaired_soft.ok());
  // With pr in {0, 1} the class draw is deterministic... but it still
  // consumes one RNG draw per row, so values differ; compare statistics
  // instead of values.
  auto e_hard = fairness::AggregateE(*repaired_hard);
  auto e_soft = fairness::AggregateE(*repaired_soft);
  ASSERT_TRUE(e_hard.ok() && e_soft.ok());
  EXPECT_NEAR(*e_hard, *e_soft, 0.5 * (*e_hard + *e_soft) + 0.02);
}

TEST(SoftRepairTest, GmmPosteriorsStillQuenchDependence) {
  Fixture fx = MakeFixture(5, 2000, 5000);
  auto estimator = LabelEstimator::Fit(fx.research);
  ASSERT_TRUE(estimator.ok());
  auto posteriors = estimator->PosteriorsS1(fx.archive);
  ASSERT_TRUE(posteriors.ok());
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDatasetSoft(fx.archive, *posteriors);
  ASSERT_TRUE(repaired.ok());
  auto before = fairness::AggregateE(fx.archive);
  auto after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_LT(*after, *before * 0.6);
}

TEST(SoftRepairTest, StreamingSoftValueInRange) {
  Fixture fx = MakeFixture(6, 800, 1);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  const auto& grid = fx.plans.At(0, 0).grid;
  for (int i = 0; i < 500; ++i) {
    const double repaired =
        repairer->RepairValueSoft(0, 0.3, 0, -1.0 + 0.01 * static_cast<double>(i));
    EXPECT_GE(repaired, grid.lo());
    EXPECT_LE(repaired, grid.hi());
  }
}

TEST(SoftRepairTest, RejectsBadPosteriors) {
  Fixture fx = MakeFixture(7, 500, 300);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  EXPECT_FALSE(
      repairer->RepairDatasetSoft(fx.archive, std::vector<double>(3, 0.5)).ok());
  EXPECT_FALSE(repairer
                   ->RepairDatasetSoft(fx.archive,
                                       std::vector<double>(fx.archive.size(), 1.5))
                   .ok());
}

// An archive whose u labels run past the plan's strata is refused by every
// batch entry point of both 1-D repairers, soft or hard, before any row
// is repaired.
TEST(SoftRepairTest, OutOfStrataULabelsRejectedByEveryEntryPoint) {
  Fixture fx = MakeFixture(8, 500, 300);
  ASSERT_EQ(fx.plans.u_levels(), 2u);
  std::vector<int> u(fx.archive.size());
  for (size_t i = 0; i < u.size(); ++i) u[i] = static_cast<int>(i % 3);
  auto archive = data::Dataset::Create(fx.archive.features(), fx.archive.s_labels(),
                                       std::move(u), fx.archive.feature_names());
  ASSERT_TRUE(archive.ok());
  const std::vector<double> pr_s1(archive->size(), 0.5);

  auto stochastic = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(stochastic.ok());
  auto quantile = QuantileMapRepairer::Create(fx.plans);
  ASSERT_TRUE(quantile.ok());
  for (const common::Status& status :
       {stochastic->RepairDataset(*archive).status(),
        stochastic->RepairDatasetSoft(*archive, pr_s1).status(),
        quantile->RepairDataset(*archive).status(),
        quantile->RepairDatasetSoft(*archive, pr_s1).status()}) {
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument) << status.ToString();
  }
  EXPECT_EQ(stochastic->stats().values_repaired, 0u);
}

}  // namespace
}  // namespace otfair::core
