#include "stats/sampling.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace otfair::stats {
namespace {

TEST(AliasTableTest, ReconstructedProbabilitiesMatchInput) {
  auto table = AliasTable::Build({1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(table.ok());
  EXPECT_NEAR(table->Probability(0), 0.1, 1e-12);
  EXPECT_NEAR(table->Probability(3), 0.4, 1e-12);
}

TEST(AliasTableTest, EmpiricalFrequenciesMatch) {
  auto table = AliasTable::Build({0.5, 0.2, 0.3});
  ASSERT_TRUE(table.ok());
  common::Rng rng(12);
  std::vector<int> counts(3, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table->Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.3, 0.01);
}

TEST(AliasTableTest, SingleBucketAlwaysReturnsZero) {
  auto table = AliasTable::Build({7.0});
  ASSERT_TRUE(table.ok());
  common::Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightBucketsNeverSampled) {
  auto table = AliasTable::Build({0.0, 1.0, 0.0, 1.0});
  ASSERT_TRUE(table.ok());
  common::Rng rng(14);
  for (int i = 0; i < 10000; ++i) {
    const size_t s = table->Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, HighlySkewedWeights) {
  auto table = AliasTable::Build({1e-6, 1.0});
  ASSERT_TRUE(table.ok());
  common::Rng rng(15);
  int rare = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) rare += table->Sample(rng) == 0 ? 1 : 0;
  EXPECT_LT(rare, 50);  // expected ~0.1
}

TEST(AliasTableTest, UniformWeights) {
  const size_t k = 10;
  auto table = AliasTable::Build(std::vector<double>(k, 1.0));
  ASSERT_TRUE(table.ok());
  common::Rng rng(16);
  std::vector<int> counts(k, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[table->Sample(rng)];
  for (int c : counts)
    EXPECT_NEAR(c / static_cast<double>(n), 0.1, 0.01);
}

TEST(AliasTableTest, MatchesInverseCdfReference) {
  // Same distribution through both samplers; compare first moments.
  const std::vector<double> weights = {0.05, 0.15, 0.4, 0.25, 0.15};
  auto table = AliasTable::Build(weights);
  ASSERT_TRUE(table.ok());
  common::Rng rng_a(17);
  common::Rng rng_b(17);
  const int n = 100000;
  double mean_alias = 0.0;
  for (int i = 0; i < n; ++i) mean_alias += static_cast<double>(table->Sample(rng_a));
  const std::vector<size_t> ref = SampleCategorical(weights, n, rng_b);
  double mean_ref = 0.0;
  for (size_t s : ref) mean_ref += static_cast<double>(s);
  EXPECT_NEAR(mean_alias / n, mean_ref / n, 0.02);
}

TEST(AliasTableTest, RejectsBadWeights) {
  EXPECT_FALSE(AliasTable::Build({}).ok());
  EXPECT_FALSE(AliasTable::Build({0.0, 0.0}).ok());
  EXPECT_FALSE(AliasTable::Build({-1.0, 2.0}).ok());
  EXPECT_FALSE(AliasTable::Build({std::nan("")}).ok());
}

TEST(AliasTableTest, DeterministicGivenSeed) {
  auto table = AliasTable::Build({0.3, 0.7});
  ASSERT_TRUE(table.ok());
  common::Rng a(18);
  common::Rng b(18);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->Sample(a), table->Sample(b));
}

TEST(SampleCategoricalTest, CountMatches) {
  common::Rng rng(19);
  const auto samples = SampleCategorical({1.0, 1.0}, 500, rng);
  EXPECT_EQ(samples.size(), 500u);
  for (size_t s : samples) EXPECT_LT(s, 2u);
}

// The arena's contract is draw-for-draw equivalence with AliasTable: same
// weights, same generator state => same result AND same generator
// consumption. The repair determinism suite leans on this, so it is
// asserted directly across a sweep of row shapes.
TEST(AliasArenaTest, DrawSequenceIdenticalToAliasTable) {
  common::Rng weight_rng(23);
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<uint32_t>> cols;
  for (size_t len = 1; len <= 19; ++len) {
    std::vector<double> w(len);
    std::vector<uint32_t> c(len);
    for (size_t i = 0; i < len; ++i) {
      // Mix smooth, skewed, and exactly-zero weights.
      w[i] = (i % 3 == 2) ? 0.0 : weight_rng.Uniform() * (i % 5 == 0 ? 100.0 : 1.0);
      c[i] = static_cast<uint32_t>(7 * i + 3);  // arbitrary payload columns
    }
    w[0] = 1.0;  // at least one positive weight
    rows.push_back(std::move(w));
    cols.push_back(std::move(c));
  }

  AliasArena arena;
  std::vector<AliasTable> tables;
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_TRUE(arena.AppendRow(rows[r].data(), cols[r].data(), rows[r].size()).ok());
    auto table = AliasTable::Build(rows[r]);
    ASSERT_TRUE(table.ok());
    tables.push_back(std::move(*table));
  }
  ASSERT_EQ(arena.rows(), rows.size());

  common::Rng rng_arena(31);
  common::Rng rng_table(31);
  for (int draw = 0; draw < 2000; ++draw) {
    const size_t r = static_cast<size_t>(draw) % rows.size();
    const uint32_t got = arena.SampleCol(r, rng_arena);
    const size_t j = tables[r].Sample(rng_table);
    EXPECT_EQ(cols[r][j], got);
    // Consumption must stay in lockstep too (Bernoulli on degenerate
    // probabilities consumes nothing — both sides must agree on when).
    EXPECT_EQ(rng_table.Next64(), rng_arena.Next64());
  }
}

TEST(AliasArenaTest, SlotsMirrorVoseConstruction) {
  const std::vector<double> weights = {0.05, 0.15, 0.4, 0.25, 0.15};
  const std::vector<uint32_t> cols = {2, 4, 6, 8, 10};
  AliasArena arena;
  ASSERT_TRUE(arena.AppendRow(weights.data(), cols.data(), weights.size()).ok());
  ASSERT_EQ(arena.RowSize(0), weights.size());
  // Acceptance probabilities of an honest Vose table lie in [0, 1] and
  // average to n_small-adjusted mass; spot-check bounds and payloads.
  for (size_t i = 0; i < weights.size(); ++i) {
    const AliasArena::Slot& slot = arena.RowSlots(0)[i];
    EXPECT_GE(slot.prob, 0.0);
    EXPECT_LE(slot.prob, 1.0);
    EXPECT_EQ(slot.col, cols[i]);
    // The alias payload is one of the row's columns.
    bool found = false;
    for (uint32_t c : cols) found = found || c == slot.alias_col;
    EXPECT_TRUE(found);
  }
}

TEST(AliasArenaTest, EmptyRowsAndMassQueries) {
  const std::vector<double> weights = {1.0, 3.0};
  const std::vector<uint32_t> cols = {5, 9};
  AliasArena arena;
  arena.Reserve(3, 2);
  arena.AppendEmptyRow();
  ASSERT_TRUE(arena.AppendRow(weights.data(), cols.data(), 2).ok());
  arena.AppendEmptyRow();
  EXPECT_EQ(arena.rows(), 3u);
  EXPECT_FALSE(arena.RowHasMass(0));
  EXPECT_TRUE(arena.RowHasMass(1));
  EXPECT_FALSE(arena.RowHasMass(2));
  EXPECT_EQ(arena.RowSize(0), 0u);
  EXPECT_EQ(arena.RowSize(1), 2u);
  common::Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    const uint32_t col = arena.SampleCol(1, rng);
    EXPECT_TRUE(col == 5 || col == 9);
  }
}

TEST(AliasArenaTest, RejectsBadWeights) {
  AliasArena arena;
  const std::vector<uint32_t> cols = {0, 1};
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> negative = {-1.0, 2.0};
  EXPECT_FALSE(arena.AppendRow(zero.data(), cols.data(), 0).ok());
  EXPECT_FALSE(arena.AppendRow(zero.data(), cols.data(), 2).ok());
  EXPECT_FALSE(arena.AppendRow(negative.data(), cols.data(), 2).ok());
  // Failed appends must not leave a partial row behind.
  EXPECT_EQ(arena.rows(), 0u);
}

}  // namespace
}  // namespace otfair::stats
