// Unit tests for the ot::Solver seam and MakeSolver: the three built-in
// backends must be constructible by name, report honest capability flags,
// and solve a tiny instance correctly.

#include "ot/solver.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "ot/cost.h"

namespace otfair::ot {
namespace {

using common::Matrix;

DiscreteMeasure MakeMeasure(std::vector<double> support, std::vector<double> weights) {
  auto m = DiscreteMeasure::Create(std::move(support), std::move(weights));
  EXPECT_TRUE(m.ok());
  return *m;
}

// The suite keeps the name it had when backends sat in a registry, so the
// test ids stay comparable across runs.
TEST(SolverRegistryTest, BuiltinsRegistered) {
  EXPECT_EQ(SolverNames(), (std::vector<std::string>{"exact", "monotone", "sinkhorn"}));
  for (const std::string& name : SolverNames()) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ((*solver)->name(), name);
  }
}

TEST(SolverRegistryTest, UnknownNameReportsKnownOnes) {
  auto solver = MakeSolver("simplex");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(solver.status().message(),
            "unknown solver 'simplex' (known: exact, monotone, sinkhorn)");
}

TEST(SolverTest, CapabilityFlags) {
  EXPECT_FALSE((*MakeSolver("monotone"))->supports_general_cost());
  EXPECT_TRUE((*MakeSolver("exact"))->supports_general_cost());
  EXPECT_TRUE((*MakeSolver("sinkhorn"))->supports_general_cost());
}

TEST(SolverTest, MonotoneRefusesGeneralCost) {
  auto monotone = *MakeSolver("monotone");
  const Matrix cost = SquaredEuclideanCost({0.0, 1.0}, {0.0, 1.0});
  auto plan = monotone->Solve({0.5, 0.5}, {0.5, 0.5}, cost);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), common::StatusCode::kUnimplemented);
}

TEST(SolverTest, IdentitySolveOnSharedSupport) {
  // mu == nu on a shared support: the optimal plan is diagonal with zero
  // cost, for every exact backend.
  const DiscreteMeasure mu = MakeMeasure({-1.0, 0.0, 2.0}, {0.2, 0.3, 0.5});
  for (const char* name : {"monotone", "exact"}) {
    auto solver = *MakeSolver(name);
    auto sparse = solver->Solve1DSparse(mu, mu);
    ASSERT_TRUE(sparse.ok()) << name;
    const Matrix dense = sparse->ToDense();
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_NEAR(dense(i, j), i == j ? mu.weight_at(i) : 0.0, 1e-12)
            << name << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(SolverTest, Solve1DSparseMatchesDenseForEveryBackend) {
  // Each backend's CSR plan densifies to its own dense solve under the
  // squared-Euclidean cost. The monotone backend has no dense solve; its
  // staircase is the unique optimum, so the exact backend's dense plan is
  // its reference.
  const DiscreteMeasure mu = MakeMeasure({-1.0, 0.0, 0.5, 2.0}, {0.1, 0.4, 0.3, 0.2});
  const DiscreteMeasure nu = MakeMeasure({-0.5, 0.25, 1.0}, {0.3, 0.3, 0.4});
  const Matrix cost = SquaredEuclideanCost(mu.support(), nu.support());
  for (const char* name : {"monotone", "exact", "sinkhorn"}) {
    auto solver = *MakeSolver(name);
    const std::shared_ptr<const Solver> dense_solver =
        solver->supports_general_cost() ? solver : *MakeSolver("exact");
    auto sparse = solver->Solve1DSparse(mu, nu);
    auto dense = dense_solver->Solve(mu.weights(), nu.weights(), cost);
    ASSERT_TRUE(sparse.ok() && dense.ok()) << name;
    EXPECT_EQ(sparse->rows(), mu.size()) << name;
    EXPECT_EQ(sparse->cols(), nu.size()) << name;
    EXPECT_LT(sparse->ToDense().MaxAbsDiff(dense->coupling), 1e-9) << name;
  }
}

TEST(SolverTest, Solve1DRequiresSortedSupports) {
  // The one 1-D entry point reports an unsorted support on either side as
  // an invalid argument, and accepts the same measure once it is sorted.
  const DiscreteMeasure unsorted = MakeMeasure({1.0, 0.0}, {0.25, 0.75});
  const DiscreteMeasure sorted = MakeMeasure({0.0, 1.0}, {0.5, 0.5});
  for (const char* name : {"monotone", "exact", "sinkhorn"}) {
    auto solver = *MakeSolver(name);
    auto source_unsorted = solver->Solve1DSparse(unsorted, sorted);
    auto target_unsorted = solver->Solve1DSparse(sorted, unsorted);
    ASSERT_FALSE(source_unsorted.ok()) << name;
    ASSERT_FALSE(target_unsorted.ok()) << name;
    EXPECT_EQ(source_unsorted.status().code(), common::StatusCode::kInvalidArgument) << name;
    EXPECT_EQ(target_unsorted.status().code(), common::StatusCode::kInvalidArgument) << name;
    EXPECT_TRUE(solver->Solve1DSparse(unsorted.SortedBySupport(), sorted).ok()) << name;
    EXPECT_TRUE(solver->Solve1DSparse(sorted, unsorted.SortedBySupport()).ok()) << name;
  }
}

TEST(SolverTest, Solve1DSparseRequiresSortedSupports) {
  const DiscreteMeasure unsorted = MakeMeasure({1.0, 0.0}, {0.5, 0.5});
  const DiscreteMeasure sorted = MakeMeasure({0.0, 1.0}, {0.5, 0.5});
  for (const char* name : {"monotone", "exact", "sinkhorn"}) {
    auto solver = *MakeSolver(name);
    EXPECT_FALSE(solver->Solve1DSparse(unsorted, sorted).ok()) << name;
    EXPECT_FALSE(solver->Solve1DSparse(sorted, unsorted).ok()) << name;
  }
}

TEST(SolverTest, MonotoneSparsePlanIsAStaircase) {
  // n + m - 1 entries at most, CSR-sorted, marginals exact.
  const DiscreteMeasure mu = MakeMeasure({0.0, 1.0, 2.0, 3.0}, {0.25, 0.25, 0.25, 0.25});
  const DiscreteMeasure nu = MakeMeasure({0.5, 1.5, 2.5}, {0.4, 0.3, 0.3});
  auto sparse = (*MakeSolver("monotone"))->Solve1DSparse(mu, nu);
  ASSERT_TRUE(sparse.ok());
  EXPECT_LE(sparse->nnz(), mu.size() + nu.size() - 1);
  EXPECT_TRUE(sparse->columns_sorted());
  const std::vector<double> rows = sparse->RowSums();
  for (size_t i = 0; i < mu.size(); ++i) EXPECT_NEAR(rows[i], mu.weight_at(i), 1e-15);
  const std::vector<double> cols = sparse->ColSums();
  for (size_t j = 0; j < nu.size(); ++j) EXPECT_NEAR(cols[j], nu.weight_at(j), 1e-15);
}

TEST(SolverTest, SinkhornSparseTruncationShrinksThePlan) {
  // Spread-out supports + small epsilon: the off-band entries underflow
  // the mass-relative threshold and the truncated CSR is strictly
  // smaller than dense, with marginals held to solver tolerance.
  std::vector<double> support(24);
  std::vector<double> weights(24, 1.0 / 24.0);
  for (size_t i = 0; i < support.size(); ++i) support[i] = static_cast<double>(i) * 0.25;
  const DiscreteMeasure mu = MakeMeasure(support, weights);
  SolverOptions options;
  options.sinkhorn.epsilon = 0.02;
  auto sparse = (*MakeSolver("sinkhorn", options))->Solve1DSparse(mu, mu);
  ASSERT_TRUE(sparse.ok());
  EXPECT_LT(sparse->nnz(), mu.size() * mu.size());
  const std::vector<double> rows = sparse->RowSums();
  const std::vector<double> cols = sparse->ColSums();
  for (size_t i = 0; i < mu.size(); ++i) {
    EXPECT_NEAR(rows[i], mu.weight_at(i), 1e-6) << i;
    EXPECT_NEAR(cols[i], mu.weight_at(i), 1e-6) << i;
  }
}

TEST(SolverTest, SolverOptionsReachTheBackend) {
  // A Sinkhorn backend built with a huge tolerance and one iteration
  // produces a sloppier plan than the defaults — proving MakeSolver
  // passes options through.
  const DiscreteMeasure mu = MakeMeasure({0.0, 1.0, 2.0}, {0.6, 0.3, 0.1});
  const DiscreteMeasure nu = MakeMeasure({0.0, 1.0, 2.0}, {0.1, 0.3, 0.6});

  SolverOptions sloppy;
  sloppy.sinkhorn.max_iterations = 1;
  SolverOptions tight;
  tight.sinkhorn.max_iterations = 10000;
  tight.sinkhorn.tolerance = 1e-12;

  auto plan_sloppy = (*MakeSolver("sinkhorn", sloppy))->Solve1DSparse(mu, nu);
  auto plan_tight = (*MakeSolver("sinkhorn", tight))->Solve1DSparse(mu, nu);
  ASSERT_TRUE(plan_sloppy.ok() && plan_tight.ok());

  auto row_error = [&](const SparsePlan& plan) {
    double worst = 0.0;
    for (size_t i = 0; i < 3; ++i)
      worst = std::max(worst, std::fabs(plan.RowSum(i) - mu.weight_at(i)));
    return worst;
  };
  EXPECT_GT(row_error(*plan_sloppy), row_error(*plan_tight));
}

}  // namespace
}  // namespace otfair::ot
