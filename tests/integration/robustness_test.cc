// Failure-injection and edge-regime tests: degenerate data, hostile
// inputs, extreme parameters. The library must fail loudly (Status) or
// degrade gracefully — never crash or emit NaN.

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "core/pipeline.h"
#include "core/quantile_repair.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "sim/gaussian_mixture.h"

namespace otfair {
namespace {

using common::Matrix;
using common::Rng;

data::Dataset DatasetFromRows(const std::vector<std::vector<double>>& rows,
                              std::vector<int> s, std::vector<int> u) {
  std::vector<std::string> names;
  for (size_t k = 0; k < rows[0].size(); ++k) names.push_back("f" + std::to_string(k));
  auto d = data::Dataset::Create(Matrix::FromRows(rows), std::move(s), std::move(u), names);
  EXPECT_TRUE(d.ok());
  return *d;
}

TEST(RobustnessTest, ConstantFeatureChannelSurvivesPipeline) {
  // A channel where every research value is identical: the grid widens the
  // degenerate range, KDE falls back to a positive bandwidth, and repair
  // must stay finite. 7.0 has StdDev exactly 0; 1.7 has a rounded StdDev
  // of ~5e-15, which must not pass for a real spread. At even n_Q <= 12
  // the constant sits midway between the two middle points of a coarse
  // grid, where a 1e-3 bandwidth underflows the whole KDE.
  for (const size_t n_q : {core::DesignOptions{}.n_q, size_t{2}, size_t{4}, size_t{12}}) {
    for (const double constant : {7.0, 1.7}) {
      SCOPED_TRACE(std::to_string(constant) + " n_q=" + std::to_string(n_q));
      Rng rng(1);
      const size_t n = 400;
      Matrix features(n, 2);
      std::vector<int> s(n);
      std::vector<int> u(n);
      for (size_t i = 0; i < n; ++i) {
        s[i] = rng.Bernoulli(0.5) ? 1 : 0;
        u[i] = rng.Bernoulli(0.5) ? 1 : 0;
        features(i, 0) = constant;  // constant channel
        features(i, 1) = rng.Normal(s[i] * 1.0, 1.0);
      }
      auto research = data::Dataset::Create(std::move(features), s, u, {"const", "x"});
      ASSERT_TRUE(research.ok());

      core::DesignOptions options;
      options.n_q = n_q;
      auto plans = core::DesignDistributionalRepair(*research, options);
      ASSERT_TRUE(plans.ok()) << plans.status().ToString();
      auto repairer = core::OffSampleRepairer::Create(*plans, {});
      ASSERT_TRUE(repairer.ok());
      auto repaired = repairer->RepairDataset(*research);
      ASSERT_TRUE(repaired.ok());
      for (size_t i = 0; i < repaired->size(); ++i) {
        EXPECT_TRUE(std::isfinite(repaired->feature(i, 0)));
        // Constant channel: repaired values stay near the constant.
        EXPECT_NEAR(repaired->feature(i, 0), constant, 1.0);
      }
    }
  }
}

TEST(RobustnessTest, MinimalGroupSizesStillDesign) {
  // Exactly min_group_size rows in the smallest (u, s) cell.
  data::Dataset research = DatasetFromRows(
      {{0.0}, {0.5}, {1.0}, {1.5}, {2.0}, {2.5}, {3.0}, {3.5}},
      {0, 0, 1, 1, 0, 0, 1, 1}, {0, 0, 0, 0, 1, 1, 1, 1});
  auto plans = core::DesignDistributionalRepair(research, {});
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  EXPECT_TRUE(plans->Validate(1e-6).ok());
}

TEST(RobustnessTest, ExtremeArchiveValuesClampedNotCrashed) {
  Rng rng(2);
  auto research = sim::SimulateGaussianMixture(
      500, sim::GaussianSimConfig::PaperDefault(), rng);
  ASSERT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  ASSERT_TRUE(plans.ok());
  auto repairer = core::OffSampleRepairer::Create(*plans, {});
  ASSERT_TRUE(repairer.ok());
  for (double x : {1e30, -1e30, 1e-300, std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest()}) {
    const double repaired = repairer->RepairValue(0, 0, 0, x);
    EXPECT_TRUE(std::isfinite(repaired)) << "x=" << x;
    const auto& grid = plans->At(0, 0).grid;
    EXPECT_GE(repaired, grid.lo());
    EXPECT_LE(repaired, grid.hi());
  }
  EXPECT_GT(repairer->stats().values_clamped, 0u);
}

TEST(RobustnessTest, QuantileMapHandlesExtremeValues) {
  Rng rng(3);
  auto research = sim::SimulateGaussianMixture(
      500, sim::GaussianSimConfig::PaperDefault(), rng);
  ASSERT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  ASSERT_TRUE(plans.ok());
  auto repairer = core::QuantileMapRepairer::Create(*plans);
  ASSERT_TRUE(repairer.ok());
  for (double x : {1e30, -1e30}) {
    EXPECT_TRUE(std::isfinite(repairer->RepairValue(1, 1, 1, x)));
  }
}

TEST(RobustnessTest, HeavilyImbalancedClassesRepairable) {
  // 95/5 class imbalance within strata: the minority conditional is
  // estimated from few points but the pipeline must hold.
  sim::GaussianSimConfig config = sim::GaussianSimConfig::PaperDefault();
  config.pr_s0_given_u0 = 0.05;
  config.pr_s0_given_u1 = 0.05;
  Rng rng(4);
  auto research = sim::SimulateGaussianMixture(2000, config, rng);
  auto archive = sim::SimulateGaussianMixture(4000, config, rng);
  ASSERT_TRUE(research.ok() && archive.ok());
  auto result = core::RunRepairPipeline(*research, *archive, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto before = fairness::AggregateE(*archive);
  auto after = fairness::AggregateE(result->repaired_archive);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_LT(*after, *before);
}

TEST(RobustnessTest, HeavyTailedDataSurvives) {
  // Cauchy-ish research data (normal ratio): huge outliers stretch the
  // grid; design and repair must stay finite.
  Rng rng(5);
  const size_t n = 1000;
  Matrix features(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = rng.Bernoulli(0.5) ? 1 : 0;
    u[i] = rng.Bernoulli(0.5) ? 1 : 0;
    double denom = rng.Normal();
    if (std::fabs(denom) < 1e-3) denom = 1e-3;
    features(i, 0) = s[i] + rng.Normal() / denom;
  }
  auto research = data::Dataset::Create(std::move(features), s, u, {"x"});
  ASSERT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  auto repairer = core::OffSampleRepairer::Create(*plans, {});
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(*research);
  ASSERT_TRUE(repaired.ok());
  for (size_t i = 0; i < repaired->size(); ++i)
    EXPECT_TRUE(std::isfinite(repaired->feature(i, 0)));
}

TEST(RobustnessTest, SinglePointGroupsRejectedCleanly) {
  data::Dataset research = DatasetFromRows({{0.0}, {1.0}, {2.0}, {3.0}, {4.0}, {5.0}},
                                           {0, 1, 1, 0, 1, 1}, {0, 0, 0, 1, 1, 1});
  // (u=0, s=0) and (u=1, s=0) have one row each: below min_group_size.
  auto plans = core::DesignDistributionalRepair(research, {});
  EXPECT_FALSE(plans.ok());
  EXPECT_EQ(plans.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST(RobustnessTest, HugeNqOnTinyDataWellFormed) {
  // More grid states than research points: the interpolants oversample the
  // KDE, which must stay normalized and repairable.
  data::Dataset research = DatasetFromRows(
      {{0.0}, {1.0}, {2.0}, {3.0}, {0.5}, {1.5}, {2.5}, {3.5}},
      {0, 0, 1, 1, 0, 0, 1, 1}, {0, 0, 0, 0, 1, 1, 1, 1});
  core::DesignOptions options;
  options.n_q = 200;
  auto plans = core::DesignDistributionalRepair(research, options);
  ASSERT_TRUE(plans.ok());
  EXPECT_TRUE(plans->Validate(1e-6).ok());
  auto repairer = core::OffSampleRepairer::Create(*plans, {});
  ASSERT_TRUE(repairer.ok());
  EXPECT_TRUE(std::isfinite(repairer->RepairValue(0, 0, 0, 1.23)));
}

TEST(RobustnessTest, RepairerStatsConsistent) {
  Rng rng(6);
  auto research = sim::SimulateGaussianMixture(
      400, sim::GaussianSimConfig::PaperDefault(), rng);
  auto archive = sim::SimulateGaussianMixture(
      1000, sim::GaussianSimConfig::PaperDefault(), rng);
  ASSERT_TRUE(research.ok() && archive.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  ASSERT_TRUE(plans.ok());
  auto repairer = core::OffSampleRepairer::Create(*plans, {});
  ASSERT_TRUE(repairer.ok());
  (void)repairer->RepairDataset(*archive);
  const core::RepairStats& stats = repairer->stats();
  EXPECT_EQ(stats.values_repaired, archive->size() * archive->dim());
  EXPECT_LE(stats.values_clamped, stats.values_repaired);
  EXPECT_LE(stats.empty_row_fallbacks, stats.values_repaired);
}

}  // namespace
}  // namespace otfair
