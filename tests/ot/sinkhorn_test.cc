#include "ot/sinkhorn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/cost.h"
#include "ot/exact.h"

namespace otfair::ot {
namespace {

struct Problem {
  std::vector<double> a;
  std::vector<double> b;
  common::Matrix cost;
};

Problem RandomProblem(size_t n, size_t m, uint64_t seed) {
  common::Rng rng(seed);
  Problem p;
  p.a.resize(n);
  p.b.resize(m);
  double sa = 0.0;
  double sb = 0.0;
  for (double& v : p.a) sa += (v = rng.Uniform(0.2, 1.0));
  for (double& v : p.b) sb += (v = rng.Uniform(0.2, 1.0));
  for (double& v : p.a) v /= sa;
  for (double& v : p.b) v /= sb;
  std::vector<double> xs(n);
  std::vector<double> ys(m);
  for (double& v : xs) v = rng.Uniform(-1.0, 1.0);
  for (double& v : ys) v = rng.Uniform(-1.0, 1.0);
  p.cost = SquaredEuclideanCost(xs, ys);
  return p;
}

TEST(SinkhornTest, ConvergesAndSatisfiesMarginals) {
  Problem p = RandomProblem(20, 15, 3);
  SinkhornOptions options;
  options.epsilon = 0.05;
  auto result = SolveSinkhorn(p.a, p.b, p.cost, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(result->plan.MarginalError(p.a, p.b), 1e-7);
}

TEST(SinkhornTest, CostAboveExactOptimum) {
  Problem p = RandomProblem(12, 12, 5);
  auto exact = SolveExact(p.a, p.b, p.cost);
  ASSERT_TRUE(exact.ok());
  SinkhornOptions options;
  options.epsilon = 0.1;
  auto reg = SolveSinkhorn(p.a, p.b, p.cost, options);
  ASSERT_TRUE(reg.ok());
  // The entropic plan is feasible, so its linear cost can't beat the LP.
  EXPECT_GE(reg->plan.cost, exact->cost - 1e-9);
}

TEST(SinkhornTest, CostApproachesExactAsEpsilonShrinks) {
  Problem p = RandomProblem(10, 10, 11);
  auto exact = SolveExact(p.a, p.b, p.cost);
  ASSERT_TRUE(exact.ok());
  double prev_gap = 1e9;
  for (double eps : {0.5, 0.1, 0.02}) {
    SinkhornOptions options;
    options.epsilon = eps;
    options.max_iterations = 50000;
    auto reg = SolveSinkhorn(p.a, p.b, p.cost, options);
    ASSERT_TRUE(reg.ok()) << "eps=" << eps;
    const double gap = reg->plan.cost - exact->cost;
    EXPECT_GE(gap, -1e-8);
    EXPECT_LE(gap, prev_gap + 1e-9) << "eps=" << eps;
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.01);
}

TEST(SinkhornTest, LogDomainSurvivesTinyEpsilon) {
  // exp(-C/eps) underflows to zero here; the log-scaled potentials must
  // not produce NaN.
  Problem p = RandomProblem(8, 8, 23);
  p.cost.Scale(50.0);  // make -C/eps extreme
  SinkhornOptions options;
  options.epsilon = 0.01;
  options.max_iterations = 200000;
  auto result = SolveSinkhorn(p.a, p.b, p.cost, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 8; ++i)
    for (size_t j = 0; j < 8; ++j) EXPECT_FALSE(std::isnan(result->plan.coupling(i, j)));
}

TEST(SinkhornTest, PlanIsStrictlyPositiveAtPositiveMarginals) {
  // Entropic plans are dense: every admissible cell carries some mass.
  Problem p = RandomProblem(6, 6, 29);
  SinkhornOptions options;
  options.epsilon = 0.5;
  auto result = SolveSinkhorn(p.a, p.b, p.cost, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 6; ++j) EXPECT_GT(result->plan.coupling(i, j), 0.0);
}

TEST(SinkhornTest, ZeroMarginalEntriesStayZero) {
  std::vector<double> a = {0.0, 1.0};
  std::vector<double> b = {0.5, 0.5};
  auto result = SolveSinkhorn(a, b, SquaredEuclideanCost({0.0, 1.0}, {0.0, 1.0}), {});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->plan.coupling(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(result->plan.coupling(0, 1), 0.0, 1e-12);
}

TEST(SinkhornTest, IterationCapReportedAsNotConvergedFlag) {
  Problem p = RandomProblem(10, 10, 31);
  SinkhornOptions options;
  options.epsilon = 0.01;
  options.max_iterations = 3;  // deliberately starved
  auto result = SolveSinkhorn(p.a, p.b, p.cost, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->iterations, 3u);
}

TEST(SinkhornTest, RejectsBadEpsilon) {
  Problem p = RandomProblem(3, 3, 37);
  SinkhornOptions options;
  options.epsilon = 0.0;
  EXPECT_FALSE(SolveSinkhorn(p.a, p.b, p.cost, options).ok());
}

TEST(SinkhornTest, RejectsUnbalanced) {
  auto result = SolveSinkhorn({1.0}, {0.4}, SquaredEuclideanCost({0.0}, {1.0}), {});
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace otfair::ot
