// Multi-group (K-valued S/U) end-to-end property suite: the pipeline the
// binary paper formulation generalizes into. Exercises design -> repair ->
// serve -> drift across |S| > 2, |U| != 2 datasets, plus the multi-group
// behaviour of the fairness metrics, the geometric baseline, the quantile
// (Monge) repairer, the label estimator and the plan artifact.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "core/drift.h"
#include "core/geometric.h"
#include "core/label_estimator.h"
#include "core/pipeline.h"
#include "core/quantile_repair.h"
#include "core/repair_plan.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"
#include "stats/quantile_sketch.h"

namespace otfair {
namespace {

data::Dataset Simulate(size_t n, size_t s_levels, size_t u_levels, uint64_t seed,
                       double shift = 0.0) {
  sim::MultiGroupSimConfig config = sim::MultiGroupSimConfig::Default(s_levels, u_levels);
  for (auto& stratum : config.mean)
    for (auto& component : stratum)
      for (double& m : component) m += shift;
  common::Rng rng(seed);
  auto dataset = sim::SimulateMultiGroupGaussian(n, config, rng);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return *dataset;
}

core::RepairPlanSet Design(const data::Dataset& research, size_t n_q = 40) {
  core::DesignOptions options;
  options.n_q = n_q;
  auto plans = core::DesignDistributionalRepair(research, options);
  EXPECT_TRUE(plans.ok()) << plans.status().ToString();
  return *plans;
}

TEST(MultiGroupTest, DesignCarriesLevelsAndValidates) {
  data::Dataset research = Simulate(3000, 4, 3, 1);
  EXPECT_EQ(research.s_levels(), 4u);
  EXPECT_EQ(research.u_levels(), 3u);
  core::RepairPlanSet plans = Design(research);
  EXPECT_EQ(plans.s_levels(), 4u);
  EXPECT_EQ(plans.u_levels(), 3u);
  ASSERT_EQ(plans.lambdas().size(), 4u);
  for (double l : plans.lambdas()) EXPECT_DOUBLE_EQ(l, 0.25);
  EXPECT_TRUE(plans.Validate(1e-5).ok());
  // Every (u, k) channel carries |S| marginals and plans.
  for (size_t u = 0; u < 3; ++u) {
    for (size_t k = 0; k < plans.dim(); ++k)
      EXPECT_EQ(plans.At(static_cast<int>(u), k).s_levels(), 4u);
  }
}

TEST(MultiGroupTest, StochasticRepairQuenchesKGroupDependence) {
  data::Dataset research = Simulate(4000, 4, 3, 2);
  data::Dataset archive = Simulate(12000, 4, 3, 3);
  auto repairer = core::OffSampleRepairer::Create(Design(research), {});
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(archive);
  ASSERT_TRUE(repaired.ok());
  auto e_before = fairness::AggregateE(archive);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  // Max-over-pairs E collapses: the K-group repair must quench the
  // worst class pair, not just an average.
  EXPECT_LT(*e_after, *e_before / 10.0);
}

TEST(MultiGroupTest, RepairRejectsOutOfRangeLabels) {
  data::Dataset research = Simulate(2000, 3, 2, 4);
  auto repairer = core::OffSampleRepairer::Create(Design(research), {});
  ASSERT_TRUE(repairer.ok());
  data::Dataset archive = Simulate(50, 3, 2, 5);
  std::vector<int> labels(archive.size(), 0);
  labels[0] = 3;  // beyond |S| = 3
  EXPECT_FALSE(repairer->RepairDatasetWithLabels(archive, labels).ok());
  labels[0] = -1;
  EXPECT_FALSE(repairer->RepairDatasetWithLabels(archive, labels).ok());
  // A 4-level archive cannot ride through a 3-level plan.
  data::Dataset wide = Simulate(50, 4, 2, 6);
  EXPECT_FALSE(repairer->RepairDataset(wide).ok());
}

TEST(MultiGroupTest, SoftRepairRequiresBinaryS) {
  data::Dataset research = Simulate(2000, 3, 2, 7);
  auto repairer = core::OffSampleRepairer::Create(Design(research), {});
  ASSERT_TRUE(repairer.ok());
  data::Dataset archive = Simulate(50, 3, 2, 8);
  std::vector<double> posteriors(archive.size(), 0.5);
  EXPECT_FALSE(repairer->RepairDatasetSoft(archive, posteriors).ok());
}

TEST(MultiGroupTest, PlanV3RoundTripPreservesLevelsAndValues) {
  data::Dataset research = Simulate(2500, 3, 2, 9);
  core::DesignOptions options;
  options.n_q = 32;
  options.lambdas = {0.2, 0.3, 0.5};
  auto plans = core::DesignDistributionalRepair(research, options);
  ASSERT_TRUE(plans.ok());
  const std::string path = ::testing::TempDir() + "/multigroup_v3.bin";
  ASSERT_TRUE(plans->SaveToFile(path).ok());
  auto loaded = core::RepairPlanSet::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->s_levels(), 3u);
  EXPECT_EQ(loaded->u_levels(), 2u);
  ASSERT_EQ(loaded->lambdas().size(), 3u);
  for (size_t s = 0; s < 3; ++s)
    EXPECT_DOUBLE_EQ(loaded->lambdas()[s], plans->lambdas()[s]);
  for (size_t u = 0; u < 2; ++u) {
    for (size_t k = 0; k < plans->dim(); ++k) {
      const core::ChannelPlan& a = plans->At(static_cast<int>(u), k);
      const core::ChannelPlan& b = loaded->At(static_cast<int>(u), k);
      // CSR plan payloads are raw bytes (bit-exact); measures
      // re-normalize on load, hence the 4-ulp comparison.
      for (size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(a.plan[s].MaxAbsDiff(b.plan[s]), 0.0);
        for (size_t q = 0; q < a.grid.size(); ++q)
          EXPECT_DOUBLE_EQ(a.marginal[s].weight_at(q), b.marginal[s].weight_at(q));
      }
      for (size_t q = 0; q < a.grid.size(); ++q)
        EXPECT_DOUBLE_EQ(a.barycenter.weight_at(q), b.barycenter.weight_at(q));
    }
  }
}

TEST(MultiGroupTest, NonUniformLambdasPullTheBarycenter) {
  // With lambda concentrated on class 0, the repair target must sit near
  // class 0's conditional, so class 0 barely moves and the top class
  // moves a lot.
  data::Dataset research = Simulate(4000, 3, 2, 10);
  core::DesignOptions options;
  options.n_q = 40;
  options.lambdas = {1.0, 0.0, 0.0};
  auto plans = core::DesignDistributionalRepair(research, options);
  ASSERT_TRUE(plans.ok());
  for (size_t u = 0; u < 2; ++u) {
    for (size_t k = 0; k < plans->dim(); ++k) {
      const core::ChannelPlan& channel = plans->At(static_cast<int>(u), k);
      const double gap0 = std::fabs(channel.barycenter.Mean() - channel.marginal[0].Mean());
      const double gap2 = std::fabs(channel.barycenter.Mean() - channel.marginal[2].Mean());
      EXPECT_LT(gap0, 0.05);
      EXPECT_GT(gap2, 0.5);
    }
  }
}

TEST(MultiGroupTest, QuantileMapRepairerHandlesKGroups) {
  data::Dataset research = Simulate(4000, 4, 2, 11);
  data::Dataset archive = Simulate(8000, 4, 2, 12);
  auto repairer = core::QuantileMapRepairer::Create(Design(research), 1.0);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(archive);
  ASSERT_TRUE(repaired.ok());
  auto e_before = fairness::AggregateE(archive);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  EXPECT_LT(*e_after, *e_before / 10.0);
  // The Monge map stays monotone within every (u, s, k) channel.
  for (int s = 0; s < 4; ++s) {
    double prev = repairer->RepairValue(0, s, 0, -3.0);
    for (double x = -2.9; x < 3.0; x += 0.1) {
      const double cur = repairer->RepairValue(0, s, 0, x);
      EXPECT_GE(cur, prev - 1e-12);
      prev = cur;
    }
  }
}

TEST(MultiGroupTest, GeometricRepairHandlesKGroups) {
  data::Dataset research = Simulate(4000, 3, 3, 13);
  auto repaired = core::GeometricRepairDataset(research, {});
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  auto e_before = fairness::AggregateE(research);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  EXPECT_LT(*e_after, *e_before / 5.0);
}

TEST(MultiGroupTest, DriftMonitorShardsPerGroup) {
  data::Dataset research = Simulate(3000, 4, 2, 14);
  core::RepairPlanSet plans = Design(research);
  // One sketch per (u, s, k) channel, fed every value.
  auto judge = [&](const data::Dataset& stream) {
    std::vector<stats::QuantileSketch> sketches(plans.u_levels() * plans.s_levels() *
                                                plans.dim());
    for (size_t i = 0; i < stream.size(); ++i) {
      const size_t base = (static_cast<size_t>(stream.u(i)) * plans.s_levels() +
                           static_cast<size_t>(stream.s(i))) *
                          plans.dim();
      for (size_t k = 0; k < stream.dim(); ++k) sketches[base + k].Add(stream.feature(i, k));
    }
    auto report = core::JudgeDrift(plans, sketches);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? *report : core::DriftReport{};
  };
  // Stationary stream: no drift across all |U| x |S| x d channels.
  const core::DriftReport report = judge(Simulate(20000, 4, 2, 15));
  EXPECT_EQ(report.channels.size(), 4u * 2u * 2u);
  EXPECT_FALSE(report.drifted);
  // Shifted stream: drift must trip.
  EXPECT_TRUE(judge(Simulate(20000, 4, 2, 16, /*shift=*/2.0)).drifted);
}

TEST(MultiGroupTest, LabelEstimatorRecoversKClasses) {
  data::Dataset research = Simulate(6000, 3, 2, 17);
  auto estimator = core::LabelEstimator::Fit(research);
  ASSERT_TRUE(estimator.ok()) << estimator.status().ToString();
  data::Dataset archive = Simulate(4000, 3, 2, 18);
  auto accuracy = estimator->AccuracyOn(archive);
  ASSERT_TRUE(accuracy.ok());
  // Three well-separated components: far better than the 1/3 chance rate.
  EXPECT_GT(*accuracy, 0.6);
  // Per-level posteriors form a distribution.
  const std::vector<double> post = estimator->PosteriorsFor(0, archive.Row(0));
  ASSERT_EQ(post.size(), 3u);
  double total = 0.0;
  for (double p : post) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MultiGroupTest, PipelineRunsEndToEnd) {
  data::Dataset research = Simulate(3000, 3, 2, 19);
  data::Dataset archive = Simulate(6000, 3, 2, 20);
  core::PipelineOptions options;
  options.design.n_q = 32;
  auto result = core::RunRepairPipeline(research, archive, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto e_after = fairness::AggregateE(result->repaired_archive);
  ASSERT_TRUE(e_after.ok());
  EXPECT_LT(*e_after, 0.2);
}

TEST(MultiGroupTest, ServeValidatesAndMatchesOfflineRepair) {
  data::Dataset research = Simulate(3000, 4, 3, 21);
  data::Dataset archive = Simulate(200, 4, 3, 22);
  core::RepairPlanSet plans = Design(research);
  serve::ServiceOptions service_options;
  auto service = serve::RepairService::Create(plans, service_options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->s_levels(), 4u);
  EXPECT_EQ((*service)->u_levels(), 3u);

  // Offline twin: session 0 = the batch repairer under the base seed.
  core::RepairOptions repair_options;
  repair_options.seed = service_options.seed;
  auto offline = core::OffSampleRepairer::Create(plans, repair_options);
  ASSERT_TRUE(offline.ok());
  auto batch = offline->RepairDataset(archive);
  ASSERT_TRUE(batch.ok());

  for (size_t i = 0; i < archive.size(); ++i) {
    serve::RowRequest request;
    request.session_id = 0;
    request.row_index = i;
    request.u = archive.u(i);
    request.s = archive.s(i);
    request.features = archive.Row(i);
    serve::RowResponse response;
    ASSERT_TRUE((*service)->RepairRow(request, &response).ok());
    for (size_t k = 0; k < archive.dim(); ++k)
      EXPECT_EQ(response.repaired[k], batch->feature(i, k)) << "row " << i;
  }

  // Labels outside the plan's level grid are rejected per row.
  serve::RowRequest bad;
  bad.u = 3;  // |U| = 3 -> valid levels 0..2
  bad.s = 0;
  bad.features = archive.Row(0);
  serve::RowResponse response;
  EXPECT_FALSE((*service)->RepairRow(bad, &response).ok());
  bad.u = 0;
  bad.s = 4;  // |S| = 4 -> valid levels 0..3
  EXPECT_FALSE((*service)->RepairRow(bad, &response).ok());

  // Reloading with mismatched level counts is refused; matching ones work.
  data::Dataset binary_research = Simulate(2000, 2, 2, 23);
  EXPECT_FALSE((*service)->ReloadPlan(Design(binary_research)).ok());
  EXPECT_TRUE((*service)->ReloadPlan(Design(research)).ok());
  EXPECT_EQ((*service)->plan_version(), 2u);
}

}  // namespace
}  // namespace otfair
