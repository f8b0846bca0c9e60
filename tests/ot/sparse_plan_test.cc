// Unit tests for the CSR SparsePlan — the canonical transport-plan
// representation: construction paths (entries, dense, raw CSR),
// reductions, transpose, diffing, and the truncation/refold extraction
// used by the entropic backends.

#include "ot/plan.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/simd.h"
#include "ot/solver.h"

namespace otfair::ot {
namespace {

using common::Matrix;

Matrix StaircaseDense() {
  // 3 x 4 staircase: the shape the monotone solver produces.
  Matrix m(3, 4);
  m(0, 0) = 0.2;
  m(0, 1) = 0.1;
  m(1, 1) = 0.15;
  m(1, 2) = 0.25;
  m(2, 2) = 0.05;
  m(2, 3) = 0.25;
  return m;
}

TEST(SparsePlanTest, FromEntriesRoundTripsThroughDense) {
  const std::vector<PlanEntry> entries = {{0, 0, 0.2}, {0, 1, 0.1},  {1, 1, 0.15},
                                          {1, 2, 0.25}, {2, 2, 0.05}, {2, 3, 0.25}};
  const SparsePlan plan = SparsePlan::FromEntries(entries, 3, 4);
  EXPECT_EQ(plan.rows(), 3u);
  EXPECT_EQ(plan.cols(), 4u);
  EXPECT_EQ(plan.nnz(), 6u);
  EXPECT_TRUE(plan.columns_sorted());
  EXPECT_EQ(plan.ToDense().MaxAbsDiff(StaircaseDense()), 0.0);
}

TEST(SparsePlanTest, FromEntriesSortsAndMergesDuplicates) {
  // Unsorted input with a duplicated cell: sorted into row-major order,
  // duplicate mass merged.
  const std::vector<PlanEntry> entries = {
      {2, 3, 0.25}, {0, 1, 0.05}, {1, 2, 0.25}, {0, 0, 0.2},
      {2, 2, 0.05}, {1, 1, 0.15}, {0, 1, 0.05}};
  const SparsePlan plan = SparsePlan::FromEntries(entries, 3, 4);
  EXPECT_EQ(plan.nnz(), 6u);
  EXPECT_TRUE(plan.columns_sorted());
  EXPECT_LT(plan.ToDense().MaxAbsDiff(StaircaseDense()), 1e-15);
}

TEST(SparsePlanTest, FromDenseThresholdDropsSmallEntries) {
  Matrix dense = StaircaseDense();
  const SparsePlan all = SparsePlan::FromDense(dense);
  EXPECT_EQ(all.nnz(), 6u);
  const SparsePlan big = SparsePlan::FromDense(dense, 0.1);
  EXPECT_EQ(big.nnz(), 4u);  // 0.1 and 0.05 dropped (strict threshold)
}

TEST(SparsePlanTest, RowViewAndSums) {
  const SparsePlan plan = SparsePlan::FromDense(StaircaseDense());
  const SparsePlan::RowView row1 = plan.Row(1);
  ASSERT_EQ(row1.nnz, 2u);
  EXPECT_EQ(row1.cols[0], 1u);
  EXPECT_EQ(row1.cols[1], 2u);
  EXPECT_DOUBLE_EQ(row1.values[0], 0.15);
  EXPECT_DOUBLE_EQ(row1.values[1], 0.25);

  const std::vector<double> rows = plan.RowSums();
  const std::vector<double> dense_rows = StaircaseDense().RowSums();
  for (size_t r = 0; r < 3; ++r) EXPECT_NEAR(rows[r], dense_rows[r], 1e-15);
  EXPECT_NEAR(plan.RowSum(2), dense_rows[2], 1e-15);

  const std::vector<double> cols = plan.ColSums();
  const std::vector<double> dense_cols = StaircaseDense().ColSums();
  for (size_t c = 0; c < 4; ++c) EXPECT_NEAR(cols[c], dense_cols[c], 1e-15);

  EXPECT_NEAR(plan.Sum(), 1.0, 1e-12);
}

/// Row sums as a plain loop over each row's CSR values, and as the
/// dispatched vector sum that RowSum called before; the two agree for rows
/// of up to three values under either kernel table.
void ExpectRowSumsMatchOracle(const SparsePlan& plan) {
  const std::vector<double> sums = plan.RowSums();
  ASSERT_EQ(sums.size(), plan.rows());
  const bool forced = common::simd::ForcedScalar();
  for (size_t r = 0; r < plan.rows(); ++r) {
    const SparsePlan::RowView row = plan.Row(r);
    double want = 0.0;
    for (size_t t = 0; t < row.nnz; ++t) want += row.values[t];
    EXPECT_EQ(std::bit_cast<uint64_t>(sums[r]), std::bit_cast<uint64_t>(want)) << "row " << r;
    EXPECT_EQ(std::bit_cast<uint64_t>(plan.RowSum(r)), std::bit_cast<uint64_t>(want))
        << "row " << r;
    common::simd::SetForceScalar(true);
    EXPECT_EQ(std::bit_cast<uint64_t>(common::simd::Sum(row.values, row.nnz)),
              std::bit_cast<uint64_t>(want))
        << "row " << r;
    common::simd::SetForceScalar(forced);
    if (row.nnz <= 3) {
      EXPECT_EQ(std::bit_cast<uint64_t>(common::simd::Sum(row.values, row.nnz)),
                std::bit_cast<uint64_t>(want))
          << "row " << r;
    }
  }
}

DiscreteMeasure NoisyMeasure(const std::vector<double>& support, common::Rng& rng) {
  std::vector<double> weights(support.size());
  for (double& w : weights) w = rng.Uniform(0.05, 1.0);
  return *DiscreteMeasure::Create(support, std::move(weights));
}

TEST(SparsePlanTest, RowSumsMatchPlainLoopOnSolverPlans) {
  common::Rng rng(31);
  std::vector<double> fine(64);
  for (size_t i = 0; i < fine.size(); ++i) fine[i] = -2.0 + 4.0 * i / 63.0;
  std::vector<double> coarse(8);
  for (size_t i = 0; i < coarse.size(); ++i) coarse[i] = -2.0 + 4.0 * i / 7.0;
  for (const char* backend : {"monotone", "exact"}) {
    SCOPED_TRACE(backend);
    auto solver = MakeSolver(backend);
    ASSERT_TRUE(solver.ok());
    // A staircase between two measures on one grid, and a coarse source
    // onto a fine target, whose rows hold about eight values each.
    for (const auto& [mu_support, nu_support] :
         {std::pair{fine, fine}, std::pair{coarse, fine}, std::pair{fine, coarse}}) {
      auto plan = (*solver)->Solve1DSparse(NoisyMeasure(mu_support, rng),
                                           NoisyMeasure(nu_support, rng));
      ASSERT_TRUE(plan.ok());
      ExpectRowSumsMatchOracle(*plan);
    }
  }
}

TEST(SparsePlanTest, RowSumsMatchPlainLoopOnRandomCsr) {
  common::Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 1 + rng.UniformInt(30);
    const size_t cols = 40;
    std::vector<size_t> offsets = {0};
    std::vector<uint32_t> col_indices;
    std::vector<double> values;
    for (size_t r = 0; r < rows; ++r) {
      // Empty rows, short rows and rows past the 16-value vector stride.
      const size_t nnz = rng.UniformInt(4) == 0 ? rng.UniformInt(cols) : rng.UniformInt(4);
      for (size_t t = 0; t < nnz; ++t) {
        col_indices.push_back(static_cast<uint32_t>(t));
        values.push_back(rng.Uniform() * std::pow(10.0, rng.Uniform(-8.0, 0.0)));
      }
      offsets.push_back(values.size());
    }
    auto plan = SparsePlan::FromCsr(rows, cols, std::move(offsets), std::move(col_indices),
                                    std::move(values));
    ASSERT_TRUE(plan.ok());
    ExpectRowSumsMatchOracle(*plan);
  }
}

TEST(SparsePlanTest, TransposeMatchesDenseTranspose) {
  const SparsePlan plan = SparsePlan::FromDense(StaircaseDense());
  const SparsePlan t = plan.Transposed();
  EXPECT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.nnz(), plan.nnz());
  EXPECT_TRUE(t.columns_sorted());
  EXPECT_EQ(t.ToDense().MaxAbsDiff(StaircaseDense().Transposed()), 0.0);
}

TEST(SparsePlanTest, CostMatchesDenseDot) {
  const SparsePlan plan = SparsePlan::FromDense(StaircaseDense());
  Matrix cost(3, 4);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j)
      cost(i, j) = (static_cast<double>(i) - static_cast<double>(j)) *
                   (static_cast<double>(i) - static_cast<double>(j));
  EXPECT_NEAR(plan.Cost(cost), StaircaseDense().Dot(cost), 1e-15);
}

TEST(SparsePlanTest, MaxAbsDiffHandlesDifferentPatterns) {
  const SparsePlan a = SparsePlan::FromDense(StaircaseDense());
  Matrix other = StaircaseDense();
  other(0, 1) = 0.0;   // entry present in a, absent in b
  other(2, 0) = 0.07;  // entry absent in a, present in b
  const SparsePlan b = SparsePlan::FromDense(other);
  EXPECT_NEAR(a.MaxAbsDiff(b), 0.1, 1e-15);
  EXPECT_NEAR(b.MaxAbsDiff(a), 0.1, 1e-15);
  EXPECT_EQ(a.MaxAbsDiff(a), 0.0);
}

TEST(SparsePlanTest, FromCsrValidates) {
  // A valid 2 x 3 plan.
  auto good = SparsePlan::FromCsr(2, 3, {0, 2, 3}, {0, 2, 1}, {0.25, 0.25, 0.5});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->nnz(), 3u);
  EXPECT_TRUE(good->columns_sorted());

  // Offset arity, monotonicity, final-offset, column bound, value sign.
  EXPECT_FALSE(SparsePlan::FromCsr(2, 3, {0, 2}, {0, 2}, {0.5, 0.5}).ok());
  EXPECT_FALSE(SparsePlan::FromCsr(2, 3, {0, 2, 1}, {0, 2}, {0.5, 0.5}).ok());
  EXPECT_FALSE(SparsePlan::FromCsr(2, 3, {0, 2, 4}, {0, 2}, {0.5, 0.5}).ok());
  EXPECT_FALSE(SparsePlan::FromCsr(2, 3, {0, 1, 2}, {0, 3}, {0.5, 0.5}).ok());
  EXPECT_FALSE(SparsePlan::FromCsr(2, 3, {0, 1, 2}, {0, 2}, {0.5, -0.5}).ok());
  // An interior offset past nnz must error cleanly, not read out of
  // bounds (the corrupt-file path: front/back offsets look consistent).
  EXPECT_FALSE(SparsePlan::FromCsr(2, 3, {0, 10, 2}, {0, 2}, {0.5, 0.5}).ok());

  // Unsorted-within-row columns are legal but flagged.
  auto unsorted = SparsePlan::FromCsr(1, 3, {0, 2}, {2, 0}, {0.5, 0.5});
  ASSERT_TRUE(unsorted.ok());
  EXPECT_FALSE(unsorted->columns_sorted());
  const std::vector<double> cols = unsorted->ColSums();
  EXPECT_DOUBLE_EQ(cols[0], 0.5);
  EXPECT_DOUBLE_EQ(cols[2], 0.5);
}

TEST(SparsePlanTest, TransposeOfUnsortedPlanStaysCorrect) {
  // A row with duplicate columns (only reachable through FromCsr)
  // transposes into a row with duplicate entries; the sorted flag must
  // not be asserted, and diffing must still see the merged cell mass.
  auto dup = SparsePlan::FromCsr(1, 3, {0, 2}, {1, 1}, {0.5, 0.5});
  ASSERT_TRUE(dup.ok());
  const SparsePlan t = dup->Transposed();
  EXPECT_FALSE(t.columns_sorted());
  EXPECT_EQ(t.ToDense().MaxAbsDiff(dup->ToDense().Transposed()), 0.0);
  const SparsePlan merged = SparsePlan::FromEntries({{1, 0, 1.0}}, 3, 1);
  EXPECT_EQ(t.MaxAbsDiff(merged), 0.0);
}

TEST(SparsePlanTest, TruncateToSparsePreservesRowMarginalsExactly) {
  // A Gibbs-like row profile with long tails.
  const size_t n = 32;
  Matrix dense(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(i) - static_cast<double>(j);
      dense(i, j) = std::exp(-d * d / 2.0) / static_cast<double>(n);
    }
  }
  const SparsePlan plan = TruncateToSparse(dense, 1e-8);
  EXPECT_LT(plan.nnz(), n * n);
  EXPECT_GT(plan.nnz(), 0u);
  const std::vector<double> sparse_rows = plan.RowSums();
  const std::vector<double> dense_rows = dense.RowSums();
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(sparse_rows[i], dense_rows[i], 1e-15);
  const std::vector<double> sparse_cols = plan.ColSums();
  const std::vector<double> dense_cols = dense.ColSums();
  for (size_t j = 0; j < n; ++j)
    EXPECT_NEAR(sparse_cols[j], dense_cols[j], 1e-8 * dense.Sum());
}

TEST(SparsePlanTest, TruncateKeepsRowPeakEvenWhenTiny) {
  // One row whose total mass is minuscule: its peak must survive so the
  // row never empties.
  Matrix dense(2, 3);
  dense(0, 0) = 1.0;
  dense(1, 0) = 1e-280;
  dense(1, 1) = 3e-280;
  const SparsePlan plan = TruncateToSparse(dense, 1e-6);
  EXPECT_GE(plan.Row(1).nnz, 1u);
  EXPECT_NEAR(plan.RowSum(1), 4e-280, 1e-290);
}

TEST(SparsePlanTest, EmptyAndDefaultPlans) {
  const SparsePlan empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_EQ(empty.ToDense().size(), 0u);
  EXPECT_TRUE(empty.RowSums().empty());
  EXPECT_TRUE(empty.ColSums().empty());

  const SparsePlan zero = SparsePlan::FromDense(Matrix(3, 3));
  EXPECT_EQ(zero.rows(), 3u);
  EXPECT_EQ(zero.nnz(), 0u);
  EXPECT_EQ(zero.Row(1).nnz, 0u);
  EXPECT_EQ(zero.Sum(), 0.0);
}

TEST(SparsePlanTest, MemoryBytesFarBelowDenseForStaircasePlans) {
  // A monotone-style staircase at n = 64: ~2n entries against n^2 dense.
  const size_t n = 64;
  Matrix dense(n, n);
  for (size_t i = 0; i < n; ++i) {
    dense(i, i) = 0.7 / static_cast<double>(n);
    if (i + 1 < n) dense(i, i + 1) = 0.3 / static_cast<double>(n);
  }
  const SparsePlan plan = SparsePlan::FromDense(dense);
  EXPECT_EQ(plan.nnz(), 2 * n - 1);
  const size_t dense_bytes = n * n * sizeof(double);
  EXPECT_LT(plan.MemoryBytes(), dense_bytes / 10);
}

}  // namespace
}  // namespace otfair::ot
