#include "core/marginals.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stats/normal.h"

namespace otfair::core {
namespace {

TEST(MarginalsTest, PmfOnGridNormalized) {
  common::Rng rng(100);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(rng.Normal());
  auto grid = SupportGrid::FromSamples(samples, 50);
  ASSERT_TRUE(grid.ok());
  auto marginal = InterpolateMarginal(samples, *grid);
  ASSERT_TRUE(marginal.ok());
  EXPECT_EQ(marginal->size(), 50u);
  EXPECT_LT(marginal->NormalizationError(), 1e-12);
  EXPECT_EQ(marginal->support(), grid->points());
}

TEST(MarginalsTest, TracksUnderlyingDensityShape) {
  common::Rng rng(101);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.Normal(0.0, 1.0));
  auto grid = SupportGrid::Create(-3.0, 3.0, 61);
  ASSERT_TRUE(grid.ok());
  auto marginal = InterpolateMarginal(samples, *grid);
  ASSERT_TRUE(marginal.ok());
  // Mode near 0, symmetric-ish tails.
  size_t argmax = 0;
  for (size_t q = 1; q < marginal->size(); ++q) {
    if (marginal->weight_at(q) > marginal->weight_at(argmax)) argmax = q;
  }
  EXPECT_NEAR(marginal->support_at(argmax), 0.0, 0.3);
  EXPECT_NEAR(marginal->Mean(), 0.0, 0.1);
}

TEST(MarginalsTest, ExplicitBandwidthUsed) {
  std::vector<double> samples = {0.0};
  auto grid = SupportGrid::Create(-2.0, 2.0, 41);
  ASSERT_TRUE(grid.ok());
  MarginalOptions wide;
  wide.bandwidth = 1.0;
  MarginalOptions narrow;
  narrow.bandwidth = 0.1;
  auto broad = InterpolateMarginal(samples, *grid, wide);
  auto sharp = InterpolateMarginal(samples, *grid, narrow);
  ASSERT_TRUE(broad.ok() && sharp.ok());
  // Narrow bandwidth concentrates more mass at the atom's grid point.
  const size_t centre = 20;  // grid point 0.0
  EXPECT_GT(sharp->weight_at(centre), broad->weight_at(centre));
}

TEST(MarginalsTest, RejectsMalformedBandwidth) {
  const std::vector<double> samples = {0.1, 0.4, 0.9};
  auto grid = SupportGrid::Create(0.0, 1.0, 11);
  ASSERT_TRUE(grid.ok());
  for (double bandwidth : {-1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    MarginalOptions options;
    options.bandwidth = bandwidth;
    auto marginal = InterpolateMarginal(samples, *grid, options);
    ASSERT_FALSE(marginal.ok()) << "bandwidth " << bandwidth;
    EXPECT_EQ(marginal.status().code(), common::StatusCode::kInvalidArgument);
  }
  // 0 still selects Silverman's rule, and a finite positive value is used.
  for (double bandwidth : {0.0, 0.25}) {
    MarginalOptions options;
    options.bandwidth = bandwidth;
    EXPECT_TRUE(InterpolateMarginal(samples, *grid, options).ok()) << "bandwidth " << bandwidth;
  }
}

TEST(MarginalsTest, SmallSampleStillWellFormed) {
  auto grid = SupportGrid::Create(0.0, 1.0, 11);
  ASSERT_TRUE(grid.ok());
  auto marginal = InterpolateMarginal({0.4, 0.6}, *grid);
  ASSERT_TRUE(marginal.ok());
  EXPECT_LT(marginal->NormalizationError(), 1e-12);
}

TEST(MarginalsTest, RejectsEmptySample) {
  auto grid = SupportGrid::Create(0.0, 1.0, 5);
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(InterpolateMarginal({}, *grid).ok());
}

TEST(MarginalsTest, VarianceInflatedByKernelSmoothing) {
  // KDE adds h^2 to the sample variance; check directionally.
  common::Rng rng(102);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.Normal(0.0, 1.0));
  auto grid = SupportGrid::Create(-5.0, 5.0, 201);
  ASSERT_TRUE(grid.ok());
  MarginalOptions options;
  options.bandwidth = 1.0;  // large, to make the inflation visible
  auto marginal = InterpolateMarginal(samples, *grid, options);
  ASSERT_TRUE(marginal.ok());
  EXPECT_GT(marginal->Variance(), 1.5);  // ~ 1 + 1
}

}  // namespace
}  // namespace otfair::core
