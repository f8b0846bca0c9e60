#include "stats/bandwidth.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace otfair::stats {
namespace {

TEST(BandwidthTest, SilvermanMatchesFormulaOnKnownSample) {
  // Hand check: for a sample with sigma < IQR/1.34, h = 0.9 sigma n^{-1/5}.
  common::Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.Normal());
  const double h = SilvermanBandwidth(xs);
  // For standard normal data, sigma ~ 1 and IQR/1.34 ~ 1.006, so
  // h ~ 0.9 * min(...) * 1000^-0.2 ~ 0.9 * 1.0 * 0.251 ~ 0.226.
  EXPECT_NEAR(h, 0.9 * std::pow(1000.0, -0.2), 0.03);
}

TEST(BandwidthTest, ShrinksWithSampleSize) {
  common::Rng rng(2);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 50; ++i) small.push_back(rng.Normal());
  for (int i = 0; i < 5000; ++i) large.push_back(rng.Normal());
  EXPECT_GT(SilvermanBandwidth(small), SilvermanBandwidth(large));
}

TEST(BandwidthTest, ScalesWithSpread) {
  common::Rng rng(3);
  std::vector<double> narrow;
  std::vector<double> wide;
  for (int i = 0; i < 500; ++i) {
    const double z = rng.Normal();
    narrow.push_back(z);
    wide.push_back(10.0 * z);
  }
  EXPECT_NEAR(SilvermanBandwidth(wide) / SilvermanBandwidth(narrow), 10.0, 0.01);
}

TEST(BandwidthTest, RobustToOutliersViaIqr) {
  common::Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.Normal());
  std::vector<double> with_outlier = xs;
  with_outlier.push_back(1e4);  // inflates sigma but barely moves IQR
  const double clean = SilvermanBandwidth(xs);
  const double dirty = SilvermanBandwidth(with_outlier);
  EXPECT_LT(dirty / clean, 1.5);
}

TEST(BandwidthTest, DegenerateSampleStillPositive) {
  EXPECT_GT(SilvermanBandwidth({3.0, 3.0, 3.0}), 0.0);
  EXPECT_GT(SilvermanBandwidth({42.0}), 0.0);
  EXPECT_GT(ScottBandwidth({1.0, 1.0}), 0.0);
  // 150 copies of 1.7: StdDev rounds to 4.7e-15, not 0, yet the sample has
  // no spread, so both rules take the degenerate bandwidth, as they do for
  // 3.0 (StdDev exactly 0).
  const std::vector<double> copies(150, 1.7);
  EXPECT_EQ(SilvermanBandwidth(copies), SilvermanBandwidth({3.0, 3.0, 3.0}));
  EXPECT_EQ(ScottBandwidth(copies), ScottBandwidth({1.0, 1.0}));
  EXPECT_EQ(SilvermanBandwidth(copies), 1e-3);
}

TEST(BandwidthTest, HeavilyDuplicatedDataFallsBackToSigma) {
  // IQR is 0 (75% duplicates) but sigma isn't: h must stay positive and
  // finite.
  std::vector<double> xs(90, 5.0);
  for (int i = 0; i < 10; ++i) xs.push_back(6.0 + 0.1 * i);
  const double h = SilvermanBandwidth(xs);
  EXPECT_GT(h, 0.0);
  EXPECT_TRUE(std::isfinite(h));
}

TEST(BandwidthTest, ScottLargerOrEqualSilvermanOnNormalData) {
  // Silverman multiplies by 0.9 and takes a min; Scott does neither.
  common::Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 800; ++i) xs.push_back(rng.Normal());
  EXPECT_GE(ScottBandwidth(xs), SilvermanBandwidth(xs));
}

}  // namespace
}  // namespace otfair::stats
