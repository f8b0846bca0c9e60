#include "ot/exact.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/cost.h"

namespace otfair::ot {
namespace {

TEST(ExactTest, IdenticalMarginalsOnSharedSupportCostZero) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> w = {0.2, 0.5, 0.3};
  auto plan = SolveExact(w, w, SquaredEuclideanCost(xs, xs));
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->cost, 0.0, 1e-12);
  // Identity coupling: all mass stays on the diagonal.
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(plan->coupling(i, i), w[i], 1e-12);
}

TEST(ExactTest, PointMassToPointMass) {
  auto plan = SolveExact({1.0}, {1.0}, SquaredEuclideanCost({0.0}, {3.0}));
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->cost, 9.0, 1e-12);
  EXPECT_NEAR(plan->coupling(0, 0), 1.0, 1e-12);
}

TEST(ExactTest, TwoByTwoHandSolvable) {
  // Sources at 0 and 1, sinks at 0 and 1, equal masses: identity is optimal.
  auto plan = SolveExact({0.5, 0.5}, {0.5, 0.5},
                         SquaredEuclideanCost({0.0, 1.0}, {0.0, 1.0}));
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->cost, 0.0, 1e-12);
}

TEST(ExactTest, CrossingAssignmentChosenWhenCheaper) {
  // Cost matrix forces the anti-diagonal.
  common::Matrix cost = common::Matrix::FromRows({{10.0, 1.0}, {1.0, 10.0}});
  auto plan = SolveExact({0.5, 0.5}, {0.5, 0.5}, cost);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->cost, 1.0, 1e-12);
  EXPECT_NEAR(plan->coupling(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(plan->coupling(1, 0), 0.5, 1e-12);
}

TEST(ExactTest, MassSplittingRequired) {
  // One source must split across two sinks.
  auto plan = SolveExact({1.0}, {0.4, 0.6}, SquaredEuclideanCost({0.0}, {-1.0, 1.0}));
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->coupling(0, 0), 0.4, 1e-12);
  EXPECT_NEAR(plan->coupling(0, 1), 0.6, 1e-12);
  EXPECT_NEAR(plan->cost, 1.0, 1e-12);
}

TEST(ExactTest, MarginalsSatisfiedOnRandomProblem) {
  common::Rng rng(99);
  const size_t n = 17;
  const size_t m = 23;
  std::vector<double> a(n);
  std::vector<double> b(m);
  double sa = 0.0;
  double sb = 0.0;
  for (double& v : a) sa += (v = rng.Uniform(0.1, 1.0));
  for (double& v : b) sb += (v = rng.Uniform(0.1, 1.0));
  for (double& v : a) v /= sa;
  for (double& v : b) v /= sb;
  common::Matrix cost(n, m);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < m; ++j) cost(i, j) = rng.Uniform(0.0, 5.0);
  auto plan = SolveExact(a, b, cost);
  ASSERT_TRUE(plan.ok());
  EXPECT_LT(plan->MarginalError(a, b), 1e-9);
}

TEST(ExactTest, OptimalPlanIsSparse) {
  common::Rng rng(7);
  const size_t n = 12;
  std::vector<double> a(n, 1.0 / n);
  std::vector<double> b(n, 1.0 / n);
  common::Matrix cost(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) cost(i, j) = rng.Uniform(0.0, 1.0);
  auto plan = SolveExact(a, b, cost);
  ASSERT_TRUE(plan.ok());
  // Basic solutions of the transportation polytope have <= n + m - 1 atoms.
  EXPECT_LE(SparsePlan::FromDense(plan->coupling, 1e-12).nnz(), 2 * n - 1);
}

TEST(ExactTest, CostLowerBoundsAnyFeasiblePlan) {
  // Compare against the independent (product) coupling.
  common::Rng rng(21);
  const size_t n = 8;
  std::vector<double> a(n, 1.0 / n);
  std::vector<double> b(n, 1.0 / n);
  common::Matrix cost(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) cost(i, j) = rng.Uniform(0.0, 3.0);
  auto plan = SolveExact(a, b, cost);
  ASSERT_TRUE(plan.ok());
  double product_cost = 0.0;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) product_cost += a[i] * b[j] * cost(i, j);
  EXPECT_LE(plan->cost, product_cost + 1e-12);
}

TEST(ExactTest, NegativeCostsHandled) {
  common::Matrix cost = common::Matrix::FromRows({{-5.0, 0.0}, {0.0, -5.0}});
  auto plan = SolveExact({0.5, 0.5}, {0.5, 0.5}, cost);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->cost, -5.0, 1e-12);
}

TEST(ExactTest, ZeroWeightAtomsTolerated) {
  auto plan = SolveExact({0.0, 1.0}, {0.5, 0.5},
                         SquaredEuclideanCost({0.0, 1.0}, {0.0, 2.0}));
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->coupling.RowSums()[0], 0.0, 1e-12);
  EXPECT_NEAR(plan->coupling.RowSums()[1], 1.0, 1e-12);
}

TEST(ExactTest, RejectsUnbalancedProblem) {
  auto plan = SolveExact({1.0}, {0.5}, SquaredEuclideanCost({0.0}, {1.0}));
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(ExactTest, RejectsShapeMismatch) {
  auto plan = SolveExact({0.5, 0.5}, {1.0}, SquaredEuclideanCost({0.0}, {1.0}));
  EXPECT_FALSE(plan.ok());
}

TEST(ExactTest, RejectsNegativeWeights) {
  auto plan = SolveExact({1.5, -0.5}, {0.5, 0.5},
                         SquaredEuclideanCost({0.0, 1.0}, {0.0, 1.0}));
  EXPECT_FALSE(plan.ok());
}

TEST(ExactTest, RejectsEmptyInput) {
  EXPECT_FALSE(SolveExact({}, {}, common::Matrix()).ok());
}

TEST(ExactTest, SparseDenseRoundTrip) {
  auto plan = SolveExact({0.3, 0.7}, {0.6, 0.4},
                         SquaredEuclideanCost({0.0, 1.0}, {0.0, 1.0}));
  ASSERT_TRUE(plan.ok());
  const SparsePlan sparse = SparsePlan::FromDense(plan->coupling, 1e-15);
  EXPECT_LT(sparse.ToDense().MaxAbsDiff(plan->coupling), 1e-14);
  EXPECT_NEAR(sparse.Cost(SquaredEuclideanCost({0.0, 1.0}, {0.0, 1.0})), plan->cost, 1e-12);
}

}  // namespace
}  // namespace otfair::ot
