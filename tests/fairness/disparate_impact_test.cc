#include "fairness/disparate_impact.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/matrix.h"

namespace otfair::fairness {
namespace {

using common::Matrix;

/// 8 rows: u alternates every 4, s alternates every 2.
data::Dataset EightRows(std::vector<int> outcomes = {}) {
  Matrix features(8, 1);
  for (size_t i = 0; i < 8; ++i) features(i, 0) = static_cast<double>(i);
  std::vector<int> s = {0, 0, 1, 1, 0, 0, 1, 1};
  std::vector<int> u = {0, 0, 0, 0, 1, 1, 1, 1};
  auto d = data::Dataset::Create(std::move(features), std::move(s), std::move(u), {"x"},
                                 std::move(outcomes));
  EXPECT_TRUE(d.ok());
  return *d;
}

TEST(PositiveRateTest, CountsWithinGroup) {
  data::Dataset d = EightRows();
  // Group (u=0, s=0) = rows {0, 1}; predictions: 1 and 0 -> rate 0.5.
  const std::vector<int> preds = {1, 0, 0, 0, 0, 0, 0, 0};
  auto rate = PositiveRate(d, preds, 0, 0);
  ASSERT_TRUE(rate.ok());
  EXPECT_DOUBLE_EQ(*rate, 0.5);
}

TEST(DisparateImpactTest, ParityGivesOne) {
  data::Dataset d = EightRows();
  const std::vector<int> preds = {1, 0, 1, 0, 0, 1, 0, 1};
  auto di = DisparateImpact(d, preds, 0);
  ASSERT_TRUE(di.ok());
  EXPECT_DOUBLE_EQ(*di, 1.0);
}

TEST(DisparateImpactTest, DetectsBiasAgainstS0) {
  data::Dataset d = EightRows();
  // In u=0: s=0 rate 0, s=1 rate 1 -> DI = 0.
  const std::vector<int> preds = {0, 0, 1, 1, 0, 0, 0, 0};
  auto di = DisparateImpact(d, preds, 0);
  ASSERT_TRUE(di.ok());
  EXPECT_DOUBLE_EQ(*di, 0.0);
}

TEST(DisparateImpactTest, InfinityWhenDenominatorZero) {
  data::Dataset d = EightRows();
  // In u=0: s=0 rate 0.5, s=1 rate 0 -> DI = inf.
  const std::vector<int> preds = {1, 0, 0, 0, 0, 0, 0, 0};
  auto di = DisparateImpact(d, preds, 0);
  ASSERT_TRUE(di.ok());
  EXPECT_TRUE(std::isinf(*di));
}

TEST(DisparateImpactTest, OneWhenNobodyPositive) {
  data::Dataset d = EightRows();
  const std::vector<int> preds(8, 0);
  auto di = DisparateImpact(d, preds, 1);
  ASSERT_TRUE(di.ok());
  EXPECT_DOUBLE_EQ(*di, 1.0);
}

TEST(DisparateImpactTest, ConditionalDiffersFromUnconditional) {
  // Classic Simpson-style setup: parity within each u but s-groups are
  // unevenly distributed across u with different base rates.
  Matrix features(8, 1);
  std::vector<int> s = {0, 1, 1, 1, 0, 0, 0, 1};
  std::vector<int> u = {0, 0, 0, 0, 1, 1, 1, 1};
  auto d = data::Dataset::Create(std::move(features), std::move(s), std::move(u), {"x"});
  ASSERT_TRUE(d.ok());
  // u=0 everyone positive; u=1 everyone negative: conditional DI = 1 both
  // strata, but unconditionally s=0 has rate 1/4 and s=1 has 3/4.
  // The predictions are read off u rather than written as the literal
  // {1, 1, 1, 1, 0, 0, 0, 0}: GCC 12.2 with AVX-512 enabled stores that
  // literal as a broadcast of its first element (README, Determinism).
  std::vector<int> preds(d->size());
  for (size_t i = 0; i < preds.size(); ++i) preds[i] = d->u(i) == 0 ? 1 : 0;
  auto cond0 = DisparateImpact(*d, preds, 0);
  auto cond1 = DisparateImpact(*d, preds, 1);
  auto uncond = DisparateImpactUnconditional(*d, preds);
  ASSERT_TRUE(cond0.ok() && cond1.ok() && uncond.ok());
  EXPECT_DOUBLE_EQ(*cond0, 1.0);
  EXPECT_DOUBLE_EQ(*cond1, 1.0);
  EXPECT_NEAR(*uncond, (1.0 / 4.0) / (3.0 / 4.0), 1e-12);
}

TEST(StatisticalParityTest, SignedDifference) {
  data::Dataset d = EightRows();
  // u=0: s=1 rate 1.0, s=0 rate 0.5 -> SPD = +0.5.
  const std::vector<int> preds = {1, 0, 1, 1, 0, 0, 0, 0};
  auto spd = StatisticalParityDifference(d, preds, 0);
  ASSERT_TRUE(spd.ok());
  EXPECT_DOUBLE_EQ(*spd, 0.5);
}

TEST(StatisticalParityTest, ZeroAtParity) {
  data::Dataset d = EightRows();
  const std::vector<int> preds = {1, 0, 0, 1, 1, 1, 1, 1};
  auto spd = StatisticalParityDifference(d, preds, 0);
  ASSERT_TRUE(spd.ok());
  EXPECT_DOUBLE_EQ(*spd, 0.0);
}

TEST(AccuracyTest, CountsMatches) {
  data::Dataset d = EightRows({1, 1, 0, 0, 1, 1, 0, 0});
  const std::vector<int> preds = {1, 1, 0, 0, 0, 0, 1, 1};
  auto acc = Accuracy(d, preds);
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*acc, 0.5);
}

TEST(AccuracyTest, RequiresOutcome) {
  data::Dataset d = EightRows();
  EXPECT_FALSE(Accuracy(d, std::vector<int>(8, 0)).ok());
}

TEST(ValidationTest, RejectsBadPredictions) {
  data::Dataset d = EightRows();
  EXPECT_FALSE(DisparateImpact(d, {1, 0}, 0).ok());              // wrong length
  EXPECT_FALSE(DisparateImpact(d, std::vector<int>(8, 2), 0).ok());  // non-binary
}

TEST(ValidationTest, EmptyGroupReported) {
  Matrix features(2, 1);
  auto d = data::Dataset::Create(std::move(features), {0, 0}, {0, 0}, {"x"});
  ASSERT_TRUE(d.ok());
  auto di = DisparateImpact(*d, {1, 0}, 0);  // no s=1 rows in u=0
  EXPECT_FALSE(di.ok());
  EXPECT_EQ(di.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST(DisparateImpactMultiGroupTest, WorstPairBoundsEveryRatio) {
  // Three s levels in one u stratum with positive rates 1.0 / 0.5 / 0.25:
  // worst pair = 0.25, worst parity gap = 0.75.
  common::Matrix f = common::Matrix::FromRows({{1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0},
                                               {1.0}});
  std::vector<int> s = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  std::vector<int> u(12, 0);
  auto d = data::Dataset::Create(std::move(f), std::move(s), std::move(u), {"x"}, {}, 0,
                                 /*u_levels=*/1);
  ASSERT_TRUE(d.ok());
  const std::vector<int> predictions = {1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0};
  auto rates = PositiveRatesPerLevel(*d, predictions, 0);
  ASSERT_TRUE(rates.ok());
  ASSERT_EQ(rates->size(), 3u);
  EXPECT_DOUBLE_EQ((*rates)[0], 1.0);
  EXPECT_DOUBLE_EQ((*rates)[1], 0.5);
  EXPECT_DOUBLE_EQ((*rates)[2], 0.25);
  auto worst = DisparateImpactWorstPair(*d, predictions, 0);
  ASSERT_TRUE(worst.ok());
  EXPECT_DOUBLE_EQ(*worst, 0.25);
  auto gap = StatisticalParityWorstPair(*d, predictions, 0);
  ASSERT_TRUE(gap.ok());
  EXPECT_DOUBLE_EQ(*gap, 0.75);
}

TEST(DisparateImpactMultiGroupTest, BinaryWorstPairIsDirectionFree) {
  common::Matrix f = common::Matrix::FromRows({{1.0}, {1.0}, {1.0}, {1.0}});
  auto d = data::Dataset::Create(std::move(f), {0, 0, 1, 1}, {0, 0, 0, 0}, {"x"});
  ASSERT_TRUE(d.ok());
  // rate(s=0) = 1.0, rate(s=1) = 0.5: DI = 2, worst pair = min(DI, 1/DI).
  const std::vector<int> predictions = {1, 1, 1, 0};
  auto di = DisparateImpact(*d, predictions, 0);
  auto worst = DisparateImpactWorstPair(*d, predictions, 0);
  ASSERT_TRUE(di.ok() && worst.ok());
  EXPECT_DOUBLE_EQ(*di, 2.0);
  EXPECT_DOUBLE_EQ(*worst, 0.5);
}

TEST(DisparateImpactMultiGroupTest, WorstPairAtParityIsOne) {
  common::Matrix f = common::Matrix::FromRows({{1.0}, {1.0}, {1.0}});
  auto d = data::Dataset::Create(std::move(f), {0, 1, 2}, {0, 0, 0}, {"x"}, {}, 0, 1);
  ASSERT_TRUE(d.ok());
  // Nobody receives positives: trivially at parity.
  auto worst = DisparateImpactWorstPair(*d, {0, 0, 0}, 0);
  ASSERT_TRUE(worst.ok());
  EXPECT_DOUBLE_EQ(*worst, 1.0);
}

}  // namespace
}  // namespace otfair::fairness
