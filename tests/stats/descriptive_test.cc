#include "stats/descriptive.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace otfair::stats {
namespace {

TEST(DescriptiveTest, Mean) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Mean({-1.0, 1.0}), 0.0);
}

TEST(DescriptiveTest, VarianceUnbiased) {
  // Sample variance of {1,2,3} with n-1 denominator is 1.
  EXPECT_DOUBLE_EQ(Variance({1.0, 2.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(Variance({4.0}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({2.0, 2.0, 2.0}), 0.0);
}

TEST(DescriptiveTest, StdDevIsSqrtVariance) {
  EXPECT_DOUBLE_EQ(StdDev({0.0, 2.0}), std::sqrt(2.0));
}

TEST(DescriptiveTest, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.0, 0.0};
  EXPECT_DOUBLE_EQ(Min(xs), -1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 7.0);
}

TEST(DescriptiveTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(DescriptiveTest, QuantileEndpoints) {
  const std::vector<double> xs = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 20.0);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.75), 7.5);
}

TEST(DescriptiveTest, QuantileIgnoresInputOrder) {
  EXPECT_DOUBLE_EQ(Quantile({30.0, 10.0, 20.0}, 0.5), 20.0);
}

TEST(DescriptiveTest, IqrOfUniformGrid) {
  std::vector<double> xs;
  for (int i = 0; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_NEAR(Iqr(xs), 50.0, 1e-9);
}

TEST(DescriptiveTest, MeanStdCombined) {
  const MeanStd ms = ComputeMeanStd({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(ms.mean, 2.0);
  EXPECT_DOUBLE_EQ(ms.std, 1.0);
}

/// The sort-based quantile that selection replaced: copy, full sort, then
/// the type-7 formula on the sorted sample.
double SortedQuantileOracle(const std::vector<double>& xs, double q) {
  std::vector<double> sorted(xs);
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void ExpectSameBits(double got, double want, const std::vector<double>& xs, double q) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << "n=" << xs.size() << " q=" << q << ": selection " << got << " vs sort " << want;
}

void ExpectSelectionMatchesSort(const std::vector<double>& xs, common::Rng& rng) {
  std::vector<double> qs = {0.0, 0.25, 0.5, 0.75, 1.0};
  for (int i = 0; i < 8; ++i) qs.push_back(rng.Uniform());
  for (double q : qs) ExpectSameBits(Quantile(xs, q), SortedQuantileOracle(xs, q), xs, q);
  ExpectSameBits(Median(xs), SortedQuantileOracle(xs, 0.5), xs, 0.5);
  ExpectSameBits(Iqr(xs), SortedQuantileOracle(xs, 0.75) - SortedQuantileOracle(xs, 0.25), xs,
                 -1.0);
}

TEST(DescriptiveTest, SelectionMatchesSortOnSmallSamples) {
  common::Rng rng(41);
  for (size_t n = 1; n <= 5; ++n) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> xs(n);
      // Half the trials draw from three integers, so ties are the rule.
      for (double& x : xs)
        x = trial % 2 == 0 ? rng.Normal(0.0, 3.0) : static_cast<double>(rng.UniformInt(3)) - 1.0;
      ExpectSelectionMatchesSort(xs, rng);
    }
  }
}

TEST(DescriptiveTest, SelectionMatchesSortOnLargeSamples) {
  common::Rng rng(42);
  for (size_t n : {1000u, 1001u, 1024u, 3001u}) {
    std::vector<double> gaussian(n);
    for (double& x : gaussian) x = rng.Normal(5.0, 2.0);
    ExpectSelectionMatchesSort(gaussian, rng);
    // Adult-like integer columns: a few distinct values, heavily tied.
    std::vector<double> ties(n);
    for (double& x : ties) x = static_cast<double>(rng.UniformInt(7)) * 10.0 + 20.0;
    ExpectSelectionMatchesSort(ties, rng);
    // Sorted and reversed input.
    std::sort(gaussian.begin(), gaussian.end());
    ExpectSelectionMatchesSort(gaussian, rng);
    std::reverse(gaussian.begin(), gaussian.end());
    ExpectSelectionMatchesSort(gaussian, rng);
  }
}

TEST(DescriptiveTest, SignedZeroTiesReturnAZero) {
  // -0.0 and +0.0 compare equal, so either may land at an order statistic;
  // the quantile is a zero either way.
  const std::vector<double> xs = {0.0, -0.0, 1.0, -0.0, 0.0};
  EXPECT_EQ(Quantile(xs, 0.25), 0.0);
  EXPECT_EQ(Median(xs), 0.0);
}

TEST(DescriptiveDeathTest, EmptyInputAborts) {
  EXPECT_DEATH(Mean({}), "empty");
  EXPECT_DEATH(Quantile({}, 0.5), "empty");
}

}  // namespace
}  // namespace otfair::stats
