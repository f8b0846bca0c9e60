#include "stats/sampling.h"

#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"

namespace otfair::stats {
namespace {

// Single-row cases: one arena row is one Walker/Vose alias table. Rows
// use the identity payloads 0..n-1, so a drawn column is the sampled index.

/// An arena holding one row over `weights` with payloads 0..n-1.
AliasArena OneRow(const std::vector<double>& weights) {
  std::vector<uint32_t> cols(weights.size());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<uint32_t>(i);
  AliasArena arena;
  EXPECT_TRUE(arena.AppendRow(weights.data(), cols.data(), weights.size()).ok());
  EXPECT_TRUE(arena.Finish().ok());
  return arena;
}

/// Sampling probability of each payload 0..n-1 of `row`, reconstructed
/// from its slots: bucket i is picked with 1/n, then yields col with
/// its acceptance probability and alias_col otherwise.
std::vector<double> SlotProbabilities(const AliasArena& arena, size_t row, size_t n) {
  std::vector<double> p(n, 0.0);
  const size_t buckets = arena.RowSize(row);
  for (size_t i = 0; i < buckets; ++i) {
    const AliasArena::Slot& slot = arena.RowSlots(row)[i];
    p[slot.col] += slot.prob / static_cast<double>(buckets);
    p[slot.alias_col] += (1.0 - slot.prob) / static_cast<double>(buckets);
  }
  return p;
}

TEST(AliasTableTest, ReconstructedProbabilitiesMatchInput) {
  const AliasArena arena = OneRow({1.0, 2.0, 3.0, 4.0});
  const std::vector<double> p = SlotProbabilities(arena, 0, 4);
  EXPECT_NEAR(p[0], 0.1, 1e-12);
  EXPECT_NEAR(p[1], 0.2, 1e-12);
  EXPECT_NEAR(p[2], 0.3, 1e-12);
  EXPECT_NEAR(p[3], 0.4, 1e-12);
}

TEST(AliasTableTest, EmpiricalFrequenciesMatch) {
  const AliasArena arena = OneRow({0.5, 0.2, 0.3});
  common::Rng rng(12);
  std::vector<int> counts(3, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[arena.SampleCol(0, rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.3, 0.01);
}

TEST(AliasTableTest, SingleBucketAlwaysReturnsZero) {
  const AliasArena arena = OneRow({7.0});
  common::Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(arena.SampleCol(0, rng), 0u);
}

TEST(AliasTableTest, ZeroWeightBucketsNeverSampled) {
  const AliasArena arena = OneRow({0.0, 1.0, 0.0, 1.0});
  common::Rng rng(14);
  for (int i = 0; i < 10000; ++i) {
    const uint32_t s = arena.SampleCol(0, rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, HighlySkewedWeights) {
  const AliasArena arena = OneRow({1e-6, 1.0});
  common::Rng rng(15);
  int rare = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) rare += arena.SampleCol(0, rng) == 0 ? 1 : 0;
  EXPECT_LT(rare, 50);  // expected ~0.1
}

TEST(AliasTableTest, UniformWeights) {
  const size_t k = 10;
  const AliasArena arena = OneRow(std::vector<double>(k, 1.0));
  common::Rng rng(16);
  std::vector<int> counts(k, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[arena.SampleCol(0, rng)];
  for (int c : counts)
    EXPECT_NEAR(c / static_cast<double>(n), 0.1, 0.01);
}

TEST(AliasTableTest, MatchesInverseCdfReference) {
  // Same distribution through both samplers; compare first moments.
  const std::vector<double> weights = {0.05, 0.15, 0.4, 0.25, 0.15};
  const AliasArena arena = OneRow(weights);
  common::Rng rng_a(17);
  common::Rng rng_b(17);
  const int n = 100000;
  double mean_alias = 0.0;
  for (int i = 0; i < n; ++i) mean_alias += static_cast<double>(arena.SampleCol(0, rng_a));
  const std::vector<size_t> ref = SampleCategorical(weights, n, rng_b);
  double mean_ref = 0.0;
  for (size_t s : ref) mean_ref += static_cast<double>(s);
  EXPECT_NEAR(mean_alias / n, mean_ref / n, 0.02);
}

TEST(AliasTableTest, RejectsBadWeights) {
  const std::vector<uint32_t> cols = {0, 1};
  for (const std::vector<double>& bad :
       {std::vector<double>{-1.0, 2.0}, std::vector<double>{std::nan(""), 1.0},
        std::vector<double>{1.0, std::numeric_limits<double>::infinity()}}) {
    AliasArena arena;
    const common::Status status = arena.AppendRow(bad.data(), cols.data(), bad.size());
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(AliasTableTest, DeterministicGivenSeed) {
  const AliasArena arena = OneRow({0.3, 0.7});
  common::Rng a(18);
  common::Rng b(18);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(arena.SampleCol(0, a), arena.SampleCol(0, b));
}

TEST(SampleCategoricalTest, CountMatches) {
  common::Rng rng(19);
  const auto samples = SampleCategorical({1.0, 1.0}, 500, rng);
  EXPECT_EQ(samples.size(), 500u);
  for (size_t s : samples) EXPECT_LT(s, 2u);
}

// The draw sequence fixes every repaired byte: same weights, same
// generator state => same payload AND the same generator consumption (a
// Bernoulli on a degenerate acceptance probability consumes nothing). The
// reference was recorded from the Vose construction over a sweep of row
// shapes; after each draw the generator's next word shows its
// consumption. The first 38 draws (two per row) are listed, and a CRC-32
// over all 2000 (payload, next word) pairs covers the rest.
TEST(AliasArenaTest, DrawSequenceMatchesRecording) {
  common::Rng weight_rng(23);
  AliasArena arena;
  for (size_t len = 1; len <= 19; ++len) {
    std::vector<double> w(len);
    std::vector<uint32_t> c(len);
    for (size_t i = 0; i < len; ++i) {
      // Mix smooth, skewed, and exactly-zero weights.
      w[i] = (i % 3 == 2) ? 0.0 : weight_rng.Uniform() * (i % 5 == 0 ? 100.0 : 1.0);
      c[i] = static_cast<uint32_t>(7 * i + 3);  // arbitrary payload columns
    }
    w[0] = 1.0;  // at least one positive weight
    ASSERT_TRUE(arena.AppendRow(w.data(), c.data(), len).ok());
  }
  ASSERT_EQ(arena.rows(), 19u);

  struct Draw {
    uint32_t col;
    uint64_t next;
  };
  constexpr Draw kRecorded[] = {
      {3, 0xf7acb1ed95282fb1ull}, {3, 0xd1225da4ab6f0f50ull},
      {3, 0x8569fe62876dc13eull}, {24, 0x5380a3c3278f5b8cull},
      {31, 0x8ec91ba8d5a001c7ull}, {31, 0xefcedeb303150f57ull},
      {45, 0x9167083b80b19005ull}, {24, 0xe567258403039c80ull},
      {3, 0xab2e93b2354436a1ull}, {3, 0xa6c4ed59386e6eedull},
      {73, 0xb6a9381dfc288cc9ull}, {73, 0x73dede74f4b2cb1bull},
      {73, 0x698d4ec3d33ef08eull}, {73, 0x1aa32575de248859ull},
      {73, 0x3f9b047466ac541eull}, {108, 0x2ba067434e9ee38eull},
      {73, 0x3240629e7b26d215ull}, {108, 0xfa561fb11b468b07ull},
      {108, 0x8ec7e36eb7f25b23ull}, {3, 0x870c9ad07112b55dull},
      {3, 0x9eafa45c10bd9517ull}, {10, 0x9186c0d63e495ddfull},
      {3, 0x496c6f2210d7d533ull}, {3, 0xaf10c0d8ba2e0879ull},
      {3, 0x393e36fa93d98e64ull}, {3, 0x577b271b59a6da6cull},
      {10, 0xe3ae144e58eab538ull}, {3, 0x6249297a37d73beaull},
      {66, 0x1b5d3723f52a4bccull}, {73, 0xffc499cdf47602fbull},
      {73, 0xad50757bb266c301ull}, {66, 0x9d958387c80c78f4ull},
      {73, 0xc5287514c237a582ull}, {73, 0x247d170c0078f4abull},
      {73, 0xd70dd439b63d313cull}, {73, 0xee2b7e10999cdf86ull},
      {108, 0x6a2538db81fb8ea1ull}, {108, 0xa8a76420ead28725ull},
  };
  common::Rng rng(31);
  uint32_t crc = common::kCrc32Init;
  for (size_t draw = 0; draw < 2000; ++draw) {
    const uint32_t col = arena.SampleCol(draw % arena.rows(), rng);
    const uint64_t next = rng.Next64();
    if (draw < std::size(kRecorded)) {
      EXPECT_EQ(col, kRecorded[draw].col) << "draw " << draw;
      EXPECT_EQ(next, kRecorded[draw].next) << "draw " << draw;
    }
    crc = common::Crc32Update(crc, &col, sizeof(col));
    crc = common::Crc32Update(crc, &next, sizeof(next));
  }
  EXPECT_EQ(common::Crc32Final(crc), 0xD2B3EDF3u);
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
  ASSERT_TRUE(arena.AppendRow(nullptr, nullptr, 0).ok());
  ASSERT_TRUE(arena.AppendRow(weights.data(), cols.data(), 2).ok());
  ASSERT_TRUE(arena.AppendRow(nullptr, nullptr, 0).ok());
  ASSERT_TRUE(arena.Finish().ok());
  EXPECT_EQ(arena.rows(), 3u);
  EXPECT_FALSE(arena.RowHasMass(0));
  EXPECT_TRUE(arena.RowHasMass(1));
  EXPECT_FALSE(arena.RowHasMass(2));
  EXPECT_EQ(arena.RowSize(0), 0u);
  EXPECT_EQ(arena.RowSize(1), 2u);
  for (size_t row = 0; row < 3; ++row) EXPECT_EQ(arena.fallback()[row], 1u);
  common::Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    const uint32_t col = arena.SampleCol(arena.fallback()[0], rng);
    EXPECT_TRUE(col == 5 || col == 9);
  }
}

TEST(AliasArenaTest, RejectsBadWeights) {
  AliasArena arena;
  const std::vector<uint32_t> cols = {0, 1};
  const std::vector<double> negative = {-1.0, 2.0};
  const std::vector<double> nan = {1.0, std::nan("")};
  EXPECT_FALSE(arena.AppendRow(negative.data(), cols.data(), 2).ok());
  EXPECT_FALSE(arena.AppendRow(nan.data(), cols.data(), 2).ok());
  // Failed appends must not leave a partial row behind.
  EXPECT_EQ(arena.rows(), 0u);
}

// A row totalling at most kMassFloor is empty, whatever its length: the
// floor keeps KDE-tail underflow out of the Vose construction.
TEST(AliasArenaTest, RowsAtOrBelowTheFloorAreEmpty) {
  const std::vector<uint32_t> cols = {0, 1};
  const std::vector<double> zero = {0.0, 0.0};
  const std::vector<double> tiny = {1e-301, 1e-301};
  const std::vector<double> at_floor = {AliasArena::kMassFloor, 0.0};
  const std::vector<double> above_floor = {AliasArena::kMassFloor, 1e-301};
  AliasArena arena;
  ASSERT_TRUE(arena.AppendRow(zero.data(), cols.data(), 2).ok());
  ASSERT_TRUE(arena.AppendRow(tiny.data(), cols.data(), 2).ok());
  ASSERT_TRUE(arena.AppendRow(nullptr, nullptr, 0).ok());
  ASSERT_TRUE(arena.AppendRow(at_floor.data(), cols.data(), 2).ok());
  ASSERT_TRUE(arena.AppendRow(above_floor.data(), cols.data(), 2).ok());
  ASSERT_EQ(arena.rows(), 5u);
  for (size_t row = 0; row < 4; ++row) EXPECT_FALSE(arena.RowHasMass(row)) << row;
  EXPECT_TRUE(arena.RowHasMass(4));
}

// Finish() points each empty row at its nearest row with mass, the lower
// one when two are equally near, and each row with mass at itself.
TEST(AliasArenaTest, FallbackIsNearestRowWithMassLowerOnTie) {
  const std::vector<double> one = {1.0};
  const std::vector<uint32_t> col = {0};
  // Rows with mass at 2, 4 and 8 of 0..9.
  AliasArena arena;
  for (size_t row = 0; row < 10; ++row) {
    const bool mass = row == 2 || row == 4 || row == 8;
    ASSERT_TRUE(arena.AppendRow(one.data(), col.data(), mass ? 1 : 0).ok());
  }
  ASSERT_TRUE(arena.Finish().ok());
  const std::vector<uint32_t> expected = {2, 2, 2, 2, 4, 4, 4, 8, 8, 8};
  for (size_t row = 0; row < expected.size(); ++row)
    EXPECT_EQ(arena.fallback()[row], expected[row]) << "row " << row;
}

TEST(AliasArenaTest, FinishWithoutMassFails) {
  AliasArena empty;
  EXPECT_EQ(empty.Finish().code(), common::StatusCode::kFailedPrecondition);
  const std::vector<double> zero = {0.0};
  const std::vector<uint32_t> col = {0};
  AliasArena massless;
  ASSERT_TRUE(massless.AppendRow(zero.data(), col.data(), 1).ok());
  ASSERT_TRUE(massless.AppendRow(nullptr, nullptr, 0).ok());
  EXPECT_EQ(massless.Finish().code(), common::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace otfair::stats
