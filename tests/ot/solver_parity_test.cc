// Cross-backend parity property test (ISSUE 1 satellite): on random 1-D
// squared-Euclidean instances, the exact network solver and the monotone
// map must attain the *same* optimal objective (the monotone rearrangement
// is optimal for convex costs on the line), and small-epsilon Sinkhorn
// must approach it from above. Both exact backends must also produce
// non-crossing (monotone) couplings — the structural signature of 1-D
// optimality the repair pipeline relies on.

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/cost.h"
#include "ot/plan.h"
#include "ot/solver.h"

namespace otfair::ot {
namespace {

using common::Rng;

struct Instance {
  DiscreteMeasure mu;
  DiscreteMeasure nu;
};

/// Random sorted-support measure: n atoms at uniform positions in
/// [-scale, scale], Dirichlet-ish positive weights.
DiscreteMeasure RandomMeasure(size_t n, double scale, Rng& rng) {
  std::vector<double> support(n);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    support[i] = rng.Uniform(-scale, scale);
    weights[i] = rng.Exponential(1.0) + 1e-3;
  }
  std::sort(support.begin(), support.end());
  auto m = DiscreteMeasure::Create(std::move(support), std::move(weights));
  EXPECT_TRUE(m.ok());
  return *m;
}

Instance RandomInstance(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  return Instance{RandomMeasure(n, 2.0, rng), RandomMeasure(m, 3.0, rng)};
}

double PlanCost(const SparsePlan& plan, const Instance& inst) {
  return plan.Cost(SquaredEuclideanCost(inst.mu.support(), inst.nu.support()));
}

/// Largest marginal violation of a sparse plan against the two weight
/// vectors.
double MarginalError(const SparsePlan& plan, const Instance& inst) {
  const std::vector<double> row = plan.RowSums();
  const std::vector<double> col = plan.ColSums();
  double worst = 0.0;
  for (size_t i = 0; i < row.size(); ++i)
    worst = std::max(worst, std::fabs(row[i] - inst.mu.weight_at(i)));
  for (size_t j = 0; j < col.size(); ++j)
    worst = std::max(worst, std::fabs(col[j] - inst.nu.weight_at(j)));
  return worst;
}

/// A coupling is monotone (non-crossing) when no two mass-bearing entries
/// move in opposite index directions.
bool IsMonotoneCoupling(const SparsePlan& plan, double mass_floor) {
  std::vector<PlanEntry> entries;
  for (size_t i = 0; i < plan.rows(); ++i) {
    const SparsePlan::RowView row = plan.Row(i);
    for (size_t t = 0; t < row.nnz; ++t) entries.push_back({i, row.cols[t], row.values[t]});
  }
  for (size_t a = 0; a < entries.size(); ++a) {
    if (entries[a].mass <= mass_floor) continue;
    for (size_t b = a + 1; b < entries.size(); ++b) {
      if (entries[b].mass <= mass_floor) continue;
      const auto di = static_cast<long>(entries[a].i) - static_cast<long>(entries[b].i);
      const auto dj = static_cast<long>(entries[a].j) - static_cast<long>(entries[b].j);
      if (di * dj < 0) return false;
    }
  }
  return true;
}

// (n, m, seed)
using ParamType = std::tuple<size_t, size_t, uint64_t>;

class SolverParityTest : public ::testing::TestWithParam<ParamType> {};

TEST_P(SolverParityTest, ExactBackendsAgreeAndSinkhornApproaches) {
  const auto [n, m, seed] = GetParam();
  const Instance inst = RandomInstance(n, m, seed);

  auto monotone = (*MakeSolver("monotone"))->Solve1DSparse(inst.mu, inst.nu);
  auto exact = (*MakeSolver("exact"))->Solve1DSparse(inst.mu, inst.nu);
  ASSERT_TRUE(monotone.ok()) << monotone.status().ToString();
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  const double cost_monotone = PlanCost(*monotone, inst);
  const double cost_exact = PlanCost(*exact, inst);

  // Same optimum, to solver precision.
  EXPECT_NEAR(cost_monotone, cost_exact, 1e-9 * (1.0 + cost_monotone));

  // Feasibility and non-crossing structure for both exact backends.
  EXPECT_LT(MarginalError(*monotone, inst), 1e-9);
  EXPECT_LT(MarginalError(*exact, inst), 1e-9);
  EXPECT_TRUE(IsMonotoneCoupling(*monotone, 0.0));
  EXPECT_TRUE(IsMonotoneCoupling(*exact, 1e-12));

  // Small-epsilon Sinkhorn: the entropic objective upper-bounds the exact
  // one and converges to it as epsilon -> 0. The supports span O(1)
  // ranges, so epsilon = 0.01 puts the entropy gap well under 5%.
  SolverOptions options;
  options.sinkhorn.epsilon = 0.01;
  options.sinkhorn.max_iterations = 20000;
  auto sinkhorn = (*MakeSolver("sinkhorn", options))->Solve1DSparse(inst.mu, inst.nu);
  ASSERT_TRUE(sinkhorn.ok()) << sinkhorn.status().ToString();
  const double cost_sinkhorn = PlanCost(*sinkhorn, inst);
  EXPECT_GT(cost_sinkhorn, cost_exact - 1e-9);
  EXPECT_NEAR(cost_sinkhorn, cost_exact, 0.05 * (1.0 + cost_exact));
  EXPECT_LT(MarginalError(*sinkhorn, inst), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, SolverParityTest,
    ::testing::Values(ParamType{5, 5, 1}, ParamType{16, 16, 2}, ParamType{32, 32, 3},
                      ParamType{50, 50, 4}, ParamType{8, 24, 5}, ParamType{24, 8, 6},
                      ParamType{40, 17, 7}, ParamType{64, 64, 8}),
    [](const ::testing::TestParamInfo<ParamType>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "m" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace otfair::ot
