// Cross-solver property suite: the three solvers (1-D monotone, exact
// network flow, Sinkhorn) must agree on their common domain. Parameterized
// over problem sizes, seeds and cost orders.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/cost.h"
#include "ot/exact.h"
#include "ot/measure.h"
#include "ot/monotone.h"
#include "ot/plan.h"
#include "ot/sinkhorn.h"
#include "ot/wasserstein.h"

namespace otfair::ot {
namespace {

// (n, m, p, seed)
using ParamType = std::tuple<size_t, size_t, int, uint64_t>;

class SolverAgreementTest : public ::testing::TestWithParam<ParamType> {
 protected:
  void SetUp() override {
    const auto [n, m, p, seed] = GetParam();
    n_ = n;
    m_ = m;
    p_ = p;
    common::Rng rng(seed);
    std::vector<double> xs(n);
    std::vector<double> ys(m);
    std::vector<double> wa(n);
    std::vector<double> wb(m);
    for (double& v : xs) v = rng.Normal(0.0, 2.0);
    for (double& v : ys) v = rng.Normal(1.5, 1.0);
    for (double& v : wa) v = rng.Uniform(0.1, 1.0);
    for (double& v : wb) v = rng.Uniform(0.1, 1.0);
    mu_ = *DiscreteMeasure::Create(xs, wa);
    nu_ = *DiscreteMeasure::Create(ys, wb);
  }

  size_t n_ = 0;
  size_t m_ = 0;
  int p_ = 2;
  DiscreteMeasure mu_;
  DiscreteMeasure nu_;
};

TEST_P(SolverAgreementTest, MonotoneCostEqualsExactCost) {
  // 1-D with convex cost: the monotone coupling is optimal, so its cost
  // must match the LP optimum from the network solver.
  const DiscreteMeasure mu = mu_.SortedBySupport();
  const DiscreteMeasure nu = nu_.SortedBySupport();
  auto coupling = SolveMonotone1D(mu, nu);
  ASSERT_TRUE(coupling.ok());
  const common::Matrix cost = LpCost(mu.support(), nu.support(), p_);
  const double monotone_cost =
      SparsePlan::FromEntries(coupling->entries, mu.size(), nu.size()).Cost(cost);
  auto exact = SolveExact(mu.weights(), nu.weights(), cost);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(monotone_cost, exact->cost, 1e-9 * (1.0 + std::fabs(exact->cost)));
}

TEST_P(SolverAgreementTest, Wasserstein1DEqualsExactWasserstein) {
  auto fast = Wasserstein1D(mu_, nu_, p_);
  auto slow = WassersteinExact(mu_, nu_, p_);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_NEAR(*fast, *slow, 1e-8 * (1.0 + *slow));
}

TEST_P(SolverAgreementTest, MonotonePlanSatisfiesMarginals) {
  const DiscreteMeasure mu = mu_.SortedBySupport();
  const DiscreteMeasure nu = nu_.SortedBySupport();
  auto coupling = SolveMonotone1D(mu, nu);
  ASSERT_TRUE(coupling.ok());
  TransportPlan plan{
      SparsePlan::FromEntries(coupling->entries, mu.size(), nu.size()).ToDense(), 0.0};
  EXPECT_LT(plan.MarginalError(mu.weights(), nu.weights()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverAgreementTest,
    ::testing::Values(ParamType{4, 4, 2, 1}, ParamType{8, 5, 2, 2}, ParamType{16, 16, 2, 3},
                      ParamType{25, 10, 2, 4}, ParamType{32, 32, 2, 5}, ParamType{7, 7, 1, 6},
                      ParamType{20, 14, 1, 7}, ParamType{12, 30, 3, 8}, ParamType{40, 40, 2, 9},
                      ParamType{3, 50, 2, 10}));

class SinkhornApproachesExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SinkhornApproachesExactTest, GapShrinksWithEpsilon) {
  common::Rng rng(GetParam());
  const size_t n = 12;
  std::vector<double> xs(n);
  std::vector<double> w(n);
  std::vector<double> ys(n);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.Uniform(-1.0, 1.0);
    ys[i] = rng.Uniform(-1.0, 1.0);
    w[i] = rng.Uniform(0.2, 1.0);
    v[i] = rng.Uniform(0.2, 1.0);
  }
  const common::Matrix cost = SquaredEuclideanCost(xs, ys);
  double sw = 0.0;
  double sv = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sw += w[i];
    sv += v[i];
  }
  for (size_t i = 0; i < n; ++i) {
    w[i] /= sw;
    v[i] /= sv;
  }
  auto exact = SolveExact(w, v, cost);
  ASSERT_TRUE(exact.ok());

  SinkhornOptions loose;
  loose.epsilon = 0.5;
  SinkhornOptions tight;
  tight.epsilon = 0.02;
  tight.max_iterations = 100000;
  auto coarse = SolveSinkhorn(w, v, cost, loose);
  auto fine = SolveSinkhorn(w, v, cost, tight);
  ASSERT_TRUE(coarse.ok() && fine.ok());
  const double coarse_gap = coarse->plan.cost - exact->cost;
  const double fine_gap = fine->plan.cost - exact->cost;
  EXPECT_GE(coarse_gap, -1e-9);
  EXPECT_GE(fine_gap, -1e-9);
  EXPECT_LE(fine_gap, coarse_gap + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SinkhornApproachesExactTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// Wasserstein distance between Gaussian empiricals approaches the
// closed-form W2 for Gaussians: W2^2 = (m1-m2)^2 + (s1-s2)^2.
class GaussianW2Test : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GaussianW2Test, MatchesClosedFormApproximately) {
  const auto [mean_shift, sd1] = GetParam();
  common::Rng rng(1234);
  const int n = 4000;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (int i = 0; i < n; ++i) {
    xs[i] = rng.Normal(0.0, 1.0);
    ys[i] = rng.Normal(mean_shift, sd1);
  }
  auto w = Wasserstein1D(*DiscreteMeasure::FromSamples(xs),
                         *DiscreteMeasure::FromSamples(ys), 2);
  ASSERT_TRUE(w.ok());
  const double expected =
      std::sqrt(mean_shift * mean_shift + (1.0 - sd1) * (1.0 - sd1));
  EXPECT_NEAR(*w, expected, 0.08) << "shift=" << mean_shift << " sd=" << sd1;
}

INSTANTIATE_TEST_SUITE_P(Params, GaussianW2Test,
                         ::testing::Values(std::tuple{0.0, 1.0}, std::tuple{2.0, 1.0},
                                           std::tuple{0.0, 2.0}, std::tuple{1.0, 0.5},
                                           std::tuple{3.0, 2.0}));

}  // namespace
}  // namespace otfair::ot
