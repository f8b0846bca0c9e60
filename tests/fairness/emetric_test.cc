#include "fairness/emetric.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"

namespace otfair::fairness {
namespace {

using common::Matrix;
using common::Rng;

/// Builds a dataset where feature 0's s-conditionals are N(mean_s0, 1) and
/// N(mean_s1, 1) in both u strata.
data::Dataset ShiftedGaussians(Rng& rng, size_t n, double mean_s0, double mean_s1) {
  Matrix features(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = rng.Bernoulli(0.5) ? 1 : 0;
    u[i] = rng.Bernoulli(0.5) ? 1 : 0;
    features(i, 0) = rng.Normal(s[i] == 0 ? mean_s0 : mean_s1, 1.0);
  }
  return *data::Dataset::Create(std::move(features), std::move(s), std::move(u), {"x"});
}

TEST(EMetricTest, NearZeroWhenConditionallyIndependent) {
  Rng rng(80);
  data::Dataset d = ShiftedGaussians(rng, 4000, 0.0, 0.0);
  auto e = FeatureE(d, 0);
  ASSERT_TRUE(e.ok());
  EXPECT_LT(*e, 0.05);
}

TEST(EMetricTest, GrowsWithSeparation) {
  Rng rng(81);
  data::Dataset close = ShiftedGaussians(rng, 4000, 0.0, 0.5);
  data::Dataset far = ShiftedGaussians(rng, 4000, 0.0, 2.0);
  auto e_close = FeatureE(close, 0);
  auto e_far = FeatureE(far, 0);
  ASSERT_TRUE(e_close.ok() && e_far.ok());
  EXPECT_GT(*e_far, 3.0 * *e_close);
}

TEST(EMetricTest, ApproximatesGaussianSymmetrizedKl) {
  // For N(0,1) vs N(delta,1), symmetrized KL = delta^2 / 2.
  Rng rng(82);
  const double delta = 1.0;
  data::Dataset d = ShiftedGaussians(rng, 20000, 0.0, delta);
  auto e = FeatureE(d, 0);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(*e, delta * delta / 2.0, 0.12);
}

TEST(EMetricTest, BreakdownWeightsSumToOne) {
  Rng rng(83);
  data::Dataset d = ShiftedGaussians(rng, 2000, 0.0, 1.0);
  auto breakdown = FeatureEMetric(d, 0);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_NEAR(breakdown->pr_u[0] + breakdown->pr_u[1], 1.0, 1e-12);
  EXPECT_GE(breakdown->e_u[0], 0.0);
  EXPECT_GE(breakdown->e_u[1], 0.0);
}

TEST(EMetricTest, DetectsDependenceInOnlyOneStratum) {
  // s-shift present only for u = 1: E_u0 ~ 0, E_u1 >> 0.
  Rng rng(84);
  const size_t n = 8000;
  Matrix features(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = rng.Bernoulli(0.5) ? 1 : 0;
    u[i] = rng.Bernoulli(0.5) ? 1 : 0;
    const double mean = (u[i] == 1 && s[i] == 1) ? 2.0 : 0.0;
    features(i, 0) = rng.Normal(mean, 1.0);
  }
  auto d = data::Dataset::Create(std::move(features), std::move(s), std::move(u), {"x"});
  ASSERT_TRUE(d.ok());
  auto breakdown = FeatureEMetric(*d, 0);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_LT(breakdown->e_u[0], 0.1);
  EXPECT_GT(breakdown->e_u[1], 1.0);
}

TEST(EMetricTest, SkipsUnderpopulatedStratum) {
  // u = 1 stratum has a single s = 0 row; metric should renormalize onto
  // u = 0 rather than fail.
  Rng rng(85);
  const size_t n = 1000;
  Matrix features(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n);
  for (size_t i = 0; i < n; ++i) {
    u[i] = (i == 0 || i == 1) ? 1 : 0;
    s[i] = (i == 0) ? 0 : rng.Bernoulli(0.5) ? 1 : 0;
    if (i == 1) s[i] = 1;
    features(i, 0) = rng.Normal(0.0, 1.0);
  }
  auto d = data::Dataset::Create(std::move(features), std::move(s), std::move(u), {"x"});
  ASSERT_TRUE(d.ok());
  auto breakdown = FeatureEMetric(*d, 0);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_TRUE(std::isnan(breakdown->e_u[1]));
  EXPECT_FALSE(std::isnan(breakdown->e_u[0]));
}

TEST(EMetricTest, FailsWhenNoStratumUsable) {
  Matrix features = Matrix::FromRows({{1.0}, {2.0}});
  auto d = data::Dataset::Create(std::move(features), {0, 0}, {0, 1}, {"x"});
  ASSERT_TRUE(d.ok());
  auto e = FeatureE(*d, 0);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST(EMetricTest, AggregateAveragesFeatures) {
  Rng rng(86);
  const size_t n = 4000;
  Matrix features(n, 2);
  std::vector<int> s(n);
  std::vector<int> u(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = rng.Bernoulli(0.5) ? 1 : 0;
    u[i] = rng.Bernoulli(0.5) ? 1 : 0;
    features(i, 0) = rng.Normal(s[i] * 2.0, 1.0);  // dependent channel
    features(i, 1) = rng.Normal(0.0, 1.0);         // independent channel
  }
  auto d = data::Dataset::Create(std::move(features), std::move(s), std::move(u), {"a", "b"});
  ASSERT_TRUE(d.ok());
  auto e0 = FeatureE(*d, 0);
  auto e1 = FeatureE(*d, 1);
  auto agg = AggregateE(*d);
  ASSERT_TRUE(e0.ok() && e1.ok() && agg.ok());
  EXPECT_NEAR(*agg, 0.5 * (*e0 + *e1), 1e-12);
  EXPECT_GT(*e0, 10.0 * *e1);
}

TEST(EMetricTest, RejectsBadArguments) {
  Rng rng(87);
  data::Dataset d = ShiftedGaussians(rng, 100, 0.0, 0.0);
  EXPECT_FALSE(FeatureE(d, 5).ok());
  EMetricOptions options;
  options.grid_size = 1;
  EXPECT_FALSE(FeatureE(d, 0, options).ok());
}

TEST(EMetricTest, GridResolutionStableAboveThreshold) {
  Rng rng(88);
  data::Dataset d = ShiftedGaussians(rng, 5000, 0.0, 1.5);
  EMetricOptions coarse;
  coarse.grid_size = 50;
  EMetricOptions fine;
  fine.grid_size = 400;
  auto ec = FeatureE(d, 0, coarse);
  auto ef = FeatureE(d, 0, fine);
  ASSERT_TRUE(ec.ok() && ef.ok());
  EXPECT_NEAR(*ec, *ef, 0.05 * std::max(*ec, *ef) + 0.01);
}

TEST(EMetricMultiGroupTest, IdenticalLevelsScoreNearZero) {
  // Three s levels drawn from the same distribution: the max-over-pairs E
  // must be near zero.
  common::Rng rng(91);
  const size_t n = 3000;
  common::Matrix f(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<int>(rng.UniformInt(3));
    u[i] = static_cast<int>(rng.UniformInt(2));
    f(i, 0) = rng.Normal();
  }
  auto d = data::Dataset::Create(std::move(f), std::move(s), std::move(u), {"x"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->s_levels(), 3u);
  auto e = FeatureE(*d, 0);
  ASSERT_TRUE(e.ok());
  EXPECT_LT(*e, 0.05);
}

TEST(EMetricMultiGroupTest, MaxOverPairsCatchesOneOutlierLevel) {
  // Levels 0 and 1 coincide; level 2 is shifted. The worst pair dominates
  // E, so it must be close to the (0 vs 2) separation, not the average.
  common::Rng rng(92);
  const size_t n = 6000;
  common::Matrix f(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n, 0);
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<int>(rng.UniformInt(3));
    f(i, 0) = rng.Normal() + (s[i] == 2 ? 3.0 : 0.0);
  }
  auto d = data::Dataset::Create(std::move(f), std::move(s), std::move(u), {"x"}, {}, 0,
                                 /*u_levels=*/1);
  ASSERT_TRUE(d.ok());
  auto breakdown = FeatureEMetric(*d, 0);
  ASSERT_TRUE(breakdown.ok());
  EXPECT_GT(breakdown->e, 1.0);
}

TEST(EMetricMultiGroupTest, TinyClassIsSkippedNotTheStratum) {
  // Two well-populated classes plus one class below min_group_size: E
  // must come from the estimable pair, not fail the whole stratum.
  common::Rng rng(94);
  const size_t n = 2001;
  common::Matrix f(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n, 0);
  for (size_t i = 0; i < n; ++i) {
    s[i] = i == 0 ? 2 : static_cast<int>(rng.UniformInt(2));
    f(i, 0) = rng.Normal() + (s[i] == 1 ? 2.0 : 0.0);
  }
  auto d = data::Dataset::Create(std::move(f), std::move(s), std::move(u), {"x"}, {}, 3, 1);
  ASSERT_TRUE(d.ok());
  auto e = FeatureE(*d, 0);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_GT(*e, 0.5);  // the 0-vs-1 separation is measured
}

TEST(EMetricMultiGroupTest, OneVsRestLocatesTheOutlier) {
  common::Rng rng(93);
  const size_t n = 6000;
  common::Matrix f(n, 1);
  std::vector<int> s(n);
  std::vector<int> u(n, 0);
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<int>(rng.UniformInt(3));
    f(i, 0) = rng.Normal() + (s[i] == 2 ? 3.0 : 0.0);
  }
  auto d = data::Dataset::Create(std::move(f), std::move(s), std::move(u), {"x"}, {}, 0,
                                 /*u_levels=*/1);
  ASSERT_TRUE(d.ok());
  auto ovr = OneVsRestEMetric(*d, 0, 0);
  ASSERT_TRUE(ovr.ok());
  ASSERT_EQ(ovr->size(), 3u);
  // The shifted level separates from the rest far more than the others.
  EXPECT_GT((*ovr)[2], 2.0 * std::max((*ovr)[0], (*ovr)[1]));
}

TEST(EMetricTest, ConstantGroupInASpreadStratumStaysFinite) {
  // The s=1 class spans [0, 9.9], so the default 100-point grid has step
  // 0.1; every s=0 row sits at 4.05, half a step from two grid points. At
  // Silverman's fixed zero-spread bandwidth of 1e-3 that is 50 bandwidths
  // from both, where every kernel term underflows.
  std::vector<double> values;
  std::vector<int> s;
  for (int i = 0; i < 39; ++i) {
    values.push_back(0.25 * i);
    s.push_back(1);
  }
  values.push_back(9.9);
  s.push_back(1);
  for (int i = 0; i < 60; ++i) {
    values.push_back(4.05);
    s.push_back(0);
  }
  Matrix f(values.size(), 1);
  for (size_t i = 0; i < values.size(); ++i) f(i, 0) = values[i];
  std::vector<int> u(values.size(), 0);
  auto d = data::Dataset::Create(std::move(f), std::move(s), std::move(u), {"x"}, {}, 2,
                                 /*u_levels=*/1);
  ASSERT_TRUE(d.ok());

  auto breakdown = FeatureEMetric(*d, 0);
  ASSERT_TRUE(breakdown.ok()) << breakdown.status().ToString();
  EXPECT_TRUE(std::isfinite(breakdown->e));
  EXPECT_GT(breakdown->e, 0.0);

  auto ovr = OneVsRestEMetric(*d, 0, 0);
  ASSERT_TRUE(ovr.ok()) << ovr.status().ToString();
  ASSERT_EQ(ovr->size(), 2u);
  for (const double e : *ovr) EXPECT_TRUE(std::isfinite(e)) << e;
}

}  // namespace
}  // namespace otfair::fairness
