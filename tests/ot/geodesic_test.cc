#include "ot/geodesic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/barycenter.h"

namespace otfair::ot {
namespace {

/// The projection the cursor sweep replaced: one binary search per atom.
std::vector<double> UpperBoundProjection(const DiscreteMeasure& measure,
                                         const std::vector<double>& grid) {
  std::vector<double> weights(grid.size(), 0.0);
  for (size_t a = 0; a < measure.size(); ++a) {
    const double x = measure.support_at(a);
    const double m = measure.weight_at(a);
    if (m <= 0.0) continue;
    if (x <= grid.front()) {
      weights.front() += m;
      continue;
    }
    if (x >= grid.back()) {
      weights.back() += m;
      continue;
    }
    const auto it = std::upper_bound(grid.begin(), grid.end(), x);
    const size_t hi = static_cast<size_t>(it - grid.begin());
    const size_t lo = hi - 1;
    const double frac = (x - grid[lo]) / (grid[hi] - grid[lo]);
    weights[lo] += m * (1.0 - frac);
    weights[hi] += m * frac;
  }
  auto projected = DiscreteMeasure::Create(grid, std::move(weights));
  EXPECT_TRUE(projected.ok());
  return projected->weights();
}

void ExpectProjectionMatchesOracle(const DiscreteMeasure& measure,
                                   const std::vector<double>& grid) {
  auto got = ProjectToGrid(measure, grid);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->support(), grid);
  const std::vector<double> want = UpperBoundProjection(measure, grid);
  for (size_t q = 0; q < grid.size(); ++q)
    EXPECT_EQ(std::bit_cast<uint64_t>(got->weight_at(q)), std::bit_cast<uint64_t>(want[q]))
        << "grid point " << q << ": sweep " << got->weight_at(q) << " vs search " << want[q];
}

std::vector<double> UniformGrid(double lo, double hi, size_t n) {
  std::vector<double> grid(n);
  for (size_t i = 0; i < n; ++i)
    grid[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return grid;
}

/// The same atoms in a random order.
DiscreteMeasure Shuffled(const DiscreteMeasure& measure, common::Rng& rng) {
  std::vector<size_t> order(measure.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.UniformInt(i)]);
  std::vector<double> support;
  std::vector<double> weights;
  for (size_t i : order) {
    support.push_back(measure.support_at(i));
    weights.push_back(measure.weight_at(i));
  }
  return *DiscreteMeasure::FromNormalized(std::move(support), std::move(weights));
}

TEST(ProjectToGridTest, AtomOnGridPointStaysPut) {
  auto m = DiscreteMeasure::Create({1.0}, {1.0});
  auto proj = ProjectToGrid(*m, {0.0, 1.0, 2.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_DOUBLE_EQ(proj->weight_at(1), 1.0);
}

TEST(ProjectToGridTest, InteriorAtomSplitsProportionally) {
  auto m = DiscreteMeasure::Create({0.25}, {1.0});
  auto proj = ProjectToGrid(*m, {0.0, 1.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_NEAR(proj->weight_at(0), 0.75, 1e-12);
  EXPECT_NEAR(proj->weight_at(1), 0.25, 1e-12);
  EXPECT_NEAR(proj->Mean(), 0.25, 1e-12);  // mean-preserving split
}

TEST(ProjectToGridTest, OutOfRangeAtomsSnapToEnds) {
  auto m = DiscreteMeasure::Create({-5.0, 20.0}, {0.5, 0.5});
  auto proj = ProjectToGrid(*m, {0.0, 1.0, 2.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_DOUBLE_EQ(proj->weight_at(0), 0.5);
  EXPECT_DOUBLE_EQ(proj->weight_at(2), 0.5);
}

TEST(ProjectToGridTest, TotalMassPreserved) {
  auto m = DiscreteMeasure::FromSamples({0.1, 0.7, 1.3, 1.9, 2.2});
  auto proj = ProjectToGrid(*m, {0.0, 0.5, 1.0, 1.5, 2.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_LT(proj->NormalizationError(), 1e-12);
}

TEST(ProjectToGridTest, RejectsNonIncreasingGrid) {
  auto m = DiscreteMeasure::FromSamples({0.5});
  EXPECT_FALSE(ProjectToGrid(*m, {1.0, 1.0}).ok());
  EXPECT_FALSE(ProjectToGrid(*m, {2.0, 1.0}).ok());
  EXPECT_FALSE(ProjectToGrid(*m, {}).ok());
}

TEST(ProjectToGridSweepTest, MatchesBinarySearchOnBarycentreAtoms) {
  // What the designer projects: the ascending atoms of a two-measure
  // quantile barycentre of KDE-like pmfs on a shared grid.
  common::Rng rng(7);
  for (size_t nq : {16u, 64u, 250u, 512u}) {
    const std::vector<double> grid = UniformGrid(-3.0, 4.0, nq);
    std::vector<double> w0(nq);
    std::vector<double> w1(nq);
    for (size_t q = 0; q < nq; ++q) {
      const double x = grid[q];
      w0[q] = std::exp(-0.5 * (x + 1.0) * (x + 1.0)) + 1e-3 * rng.Uniform();
      w1[q] = std::exp(-0.5 * (x - 1.0) * (x - 1.0) / 0.5) + 1e-3 * rng.Uniform();
    }
    auto mu0 = DiscreteMeasure::Create(grid, w0);
    auto mu1 = DiscreteMeasure::Create(grid, w1);
    ASSERT_TRUE(mu0.ok() && mu1.ok());
    for (double t : {0.0, 0.3, 0.5, 1.0}) {
      auto atoms = QuantileBarycenter1D(*mu0, *mu1, t);
      ASSERT_TRUE(atoms.ok());
      ASSERT_TRUE(atoms->IsSorted());
      ExpectProjectionMatchesOracle(*atoms, grid);
      ExpectProjectionMatchesOracle(Shuffled(*atoms, rng), grid);
      // The barycentre projected onto a grid narrower than its range.
      ExpectProjectionMatchesOracle(*atoms, UniformGrid(-1.0, 1.5, nq / 2 + 2));
    }
  }
}

TEST(ProjectToGridSweepTest, MatchesBinarySearchOnEdgeAtoms) {
  const std::vector<double> grid = {-1.0, 0.0, 0.5, 2.0, 3.0};
  common::Rng rng(8);
  // On grid points, at and beyond both ends, duplicates, zero weights.
  const std::vector<double> support = {-5.0, -1.0, -1.0, -0.5, 0.0, 0.0, 0.25,
                                       0.5,  0.5,  1.0,  2.0, 2.0, 2.5, 3.0,
                                       3.0,  7.0,  0.25, -0.5, 2.999};
  std::vector<double> weights(support.size());
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = i % 4 == 3 ? 0.0 : rng.Uniform();
  auto ascending = DiscreteMeasure::Create(support, weights).value().SortedBySupport();
  ExpectProjectionMatchesOracle(ascending, grid);
  for (int trial = 0; trial < 20; ++trial)
    ExpectProjectionMatchesOracle(Shuffled(ascending, rng), grid);
  // Descending atoms restart the search at every step.
  std::vector<double> rev_support(ascending.support().rbegin(), ascending.support().rend());
  std::vector<double> rev_weights(ascending.weights().rbegin(), ascending.weights().rend());
  ExpectProjectionMatchesOracle(
      *DiscreteMeasure::FromNormalized(std::move(rev_support), std::move(rev_weights)), grid);
  // A one-point grid takes every atom at its only point.
  ExpectProjectionMatchesOracle(ascending, {0.5});
}

TEST(ProjectToGridSweepTest, MatchesBinarySearchOnRandomAtoms) {
  common::Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t nq = 2 + rng.UniformInt(40);
    const std::vector<double> grid = UniformGrid(-2.0, 2.0, nq);
    const size_t atoms = 1 + rng.UniformInt(200);
    std::vector<double> support(atoms);
    std::vector<double> weights(atoms);
    for (size_t a = 0; a < atoms; ++a) {
      // A third of the atoms sit exactly on grid points.
      support[a] = rng.UniformInt(3) == 0 ? grid[rng.UniformInt(nq)] : rng.Uniform(-2.5, 2.5);
      weights[a] = rng.UniformInt(10) == 0 ? 0.0 : rng.Uniform(0.01, 1.0);
    }
    weights[0] = 1.0;
    auto measure = DiscreteMeasure::Create(support, weights);
    ASSERT_TRUE(measure.ok());
    ExpectProjectionMatchesOracle(*measure, grid);
    ExpectProjectionMatchesOracle(measure->SortedBySupport(), grid);
  }
}

}  // namespace
}  // namespace otfair::ot
