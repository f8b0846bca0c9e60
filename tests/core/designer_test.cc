#include "core/designer.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/cost.h"
#include "ot/monotone.h"
#include "ot/solver.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

data::Dataset PaperResearchData(uint64_t seed, size_t n = 500) {
  common::Rng rng(seed);
  auto d = sim::SimulateGaussianMixture(n, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(d.ok());
  return *d;
}

TEST(DesignerTest, ProducesValidPlanSet) {
  data::Dataset research = PaperResearchData(1);
  DesignOptions options;
  options.n_q = 50;
  auto plans = DesignDistributionalRepair(research, options);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->dim(), 2u);
  EXPECT_TRUE(plans->Validate().ok());
  EXPECT_DOUBLE_EQ(plans->target_t(), 0.5);
}

TEST(DesignerTest, GridSpansResearchStratumRange) {
  data::Dataset research = PaperResearchData(2);
  DesignOptions options;
  options.n_q = 30;
  auto plans = DesignDistributionalRepair(research, options);
  ASSERT_TRUE(plans.ok());
  for (int u = 0; u <= 1; ++u) {
    const auto idx = research.UIndices(u);
    for (size_t k = 0; k < 2; ++k) {
      const auto column = research.FeatureColumn(k, idx);
      const auto [lo, hi] = std::minmax_element(column.begin(), column.end());
      const ChannelPlan& channel = plans->At(u, k);
      EXPECT_DOUBLE_EQ(channel.grid.lo(), *lo);
      EXPECT_DOUBLE_EQ(channel.grid.hi(), *hi);
      EXPECT_EQ(channel.grid.size(), 30u);
    }
  }
}

TEST(DesignerTest, BarycentreEquidistantFromBothMarginals) {
  data::Dataset research = PaperResearchData(3);
  auto plans = DesignDistributionalRepair(research, {});
  ASSERT_TRUE(plans.ok());
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < 2; ++k) {
      const ChannelPlan& channel = plans->At(u, k);
      auto w0 = ot::Wasserstein1D(channel.marginal[0], channel.barycenter, 2);
      auto w1 = ot::Wasserstein1D(channel.marginal[1], channel.barycenter, 2);
      ASSERT_TRUE(w0.ok() && w1.ok());
      // Grid projection introduces O(step) distortion; tolerate a few %.
      EXPECT_NEAR(*w0, *w1, 0.05 * (*w0 + *w1) + 0.02);
    }
  }
}

TEST(DesignerTest, SolversAgreeOnPlanCost) {
  data::Dataset research = PaperResearchData(4, 300);
  DesignOptions monotone;
  monotone.n_q = 25;
  monotone.solver = *ot::MakeSolver("monotone");
  DesignOptions exact = monotone;
  exact.solver = *ot::MakeSolver("exact");
  auto a = DesignDistributionalRepair(research, monotone);
  auto b = DesignDistributionalRepair(research, exact);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < 2; ++k) {
      for (int s = 0; s <= 1; ++s) {
        const auto& pa = a->At(u, k).plan[s];
        const auto& pb = b->At(u, k).plan[s];
        const auto cost = ot::SquaredEuclideanCost(a->At(u, k).grid.points(),
                                                   a->At(u, k).grid.points());
        EXPECT_NEAR(pa.Cost(cost), pb.Cost(cost), 1e-8)
            << "u=" << u << " k=" << k << " s=" << s;
      }
    }
  }
}

TEST(DesignerTest, SinkhornSolverProducesValidPlans) {
  data::Dataset research = PaperResearchData(5, 300);
  DesignOptions options;
  options.n_q = 20;
  ot::SolverOptions solver_options;
  solver_options.sinkhorn.epsilon = 0.1;
  options.solver = *ot::MakeSolver("sinkhorn", solver_options);
  auto plans = DesignDistributionalRepair(research, options);
  ASSERT_TRUE(plans.ok());
  EXPECT_TRUE(plans->Validate(1e-4).ok());
}

TEST(DesignerTest, PartialTargetMovesBarycentreTowardS1) {
  data::Dataset research = PaperResearchData(6);
  DesignOptions toward0;
  toward0.target_t = 0.1;
  DesignOptions toward1;
  toward1.target_t = 0.9;
  auto a = DesignDistributionalRepair(research, toward0);
  auto b = DesignDistributionalRepair(research, toward1);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int u = 0; u <= 1; ++u) {
    const ChannelPlan& ca = a->At(u, 0);
    const ChannelPlan& cb = b->At(u, 0);
    const double dist_a0 = std::fabs(ca.barycenter.Mean() - ca.marginal[0].Mean());
    const double dist_b0 = std::fabs(cb.barycenter.Mean() - cb.marginal[0].Mean());
    // t = 0.1 keeps the target near mu_0; t = 0.9 pushes it away,
    // whenever the two marginals actually differ.
    if (std::fabs(ca.marginal[0].Mean() - ca.marginal[1].Mean()) > 0.2) {
      EXPECT_LT(dist_a0, dist_b0);
    }
  }
}

TEST(DesignerTest, TargetZeroMakesBarycenterMu0) {
  data::Dataset research = PaperResearchData(7);
  DesignOptions options;
  options.target_t = 0.0;
  auto plans = DesignDistributionalRepair(research, options);
  ASSERT_TRUE(plans.ok());
  const ChannelPlan& channel = plans->At(0, 0);
  // nu == mu_0 (up to the grid re-projection, which is exact here since
  // mu_0 already lives on the grid).
  for (size_t q = 0; q < channel.grid.size(); ++q) {
    EXPECT_NEAR(channel.barycenter.weight_at(q), channel.marginal[0].weight_at(q), 1e-9);
  }
}

TEST(DesignerTest, RejectsBadOptions) {
  data::Dataset research = PaperResearchData(8, 200);
  DesignOptions bad_nq;
  bad_nq.n_q = 1;
  EXPECT_FALSE(DesignDistributionalRepair(research, bad_nq).ok());
  DesignOptions bad_t;
  bad_t.target_t = 1.5;
  EXPECT_FALSE(DesignDistributionalRepair(research, bad_t).ok());
}

TEST(DesignerTest, RejectsMalformedBandwidth) {
  data::Dataset research = PaperResearchData(9, 200);
  for (int threads : {1, 4}) {
    DesignOptions options;
    options.n_q = 16;
    options.threads = threads;
    options.marginal.bandwidth = -1.0;
    auto plans = DesignDistributionalRepair(research, options);
    ASSERT_FALSE(plans.ok());
    EXPECT_EQ(plans.status().code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(plans.status().message().find("bandwidth"), std::string::npos);
  }
}

TEST(DesignerTest, RejectsMissingGroup) {
  // All rows are s = 1: no s = 0 conditional to estimate.
  common::Matrix features = common::Matrix::FromRows({{0.0}, {1.0}, {2.0}, {3.0}});
  auto d = data::Dataset::Create(std::move(features), {1, 1, 1, 1}, {0, 0, 1, 1}, {"x"});
  ASSERT_TRUE(d.ok());
  auto plans = DesignDistributionalRepair(*d, {});
  EXPECT_FALSE(plans.ok());
  EXPECT_EQ(plans.status().code(), common::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace otfair::core
