#include "stats/kde.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "core/support_grid.h"
#include "stats/normal.h"

namespace otfair::stats {
namespace {

std::vector<double> Grid(double lo, double hi, size_t n) {
  std::vector<double> g(n);
  for (size_t i = 0; i < n; ++i)
    g[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return g;
}

TEST(KdeTest, SinglePointIsGaussianBump) {
  auto kde = GaussianKde::Fit({0.0}, 1.0);
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->Evaluate(0.0), NormalPdf(0.0), 1e-12);
  EXPECT_NEAR(kde->Evaluate(1.0), NormalPdf(1.0), 1e-12);
}

TEST(KdeTest, DensityIntegratesToOne) {
  common::Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.Normal());
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  // Trapezoid rule over a wide grid.
  const auto grid = Grid(-8.0, 8.0, 2001);
  const double step = grid[1] - grid[0];
  double integral = 0.0;
  for (double g : grid) integral += kde->Evaluate(g) * step;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(KdeTest, RecoversNormalDensity) {
  common::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.Normal(2.0, 1.5));
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  for (double x : {0.0, 1.0, 2.0, 3.5}) {
    EXPECT_NEAR(kde->Evaluate(x), NormalPdf(x, 2.0, 1.5), 0.02) << "x=" << x;
  }
}

TEST(KdeTest, BimodalDataGivesBimodalDensity) {
  common::Rng rng(8);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.Normal(-3.0, 0.5));
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.Normal(3.0, 0.5));
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  const double at_modes = 0.5 * (kde->Evaluate(-3.0) + kde->Evaluate(3.0));
  EXPECT_GT(at_modes, 3.0 * kde->Evaluate(0.0));  // valley between modes
}

// --- The grid kernel against the exact KDE --------------------------------

struct OracleCase {
  std::string name;
  std::vector<double> samples;
  double bandwidth = 0.0;  // 0: Silverman
  double lo = 0.0;         // grid range (SupportGrid widens lo == hi)
  double hi = 0.0;
};

// The designer's grid (Algorithm 1's literal formula) for n >= 2, its
// midpoint for n = 1.
std::vector<double> DesignGrid(double lo, double hi, size_t n) {
  if (n == 1) return {0.5 * (lo + hi)};
  auto grid = core::SupportGrid::Create(lo, hi, n);
  EXPECT_TRUE(grid.ok());
  return grid->points();
}

// Checks PmfOnGrid against the pointwise exact KDE on `grid`. For every
// entry whose exact density f(zeta_q) is >= 1e-290 the kernel's p_hat
// must be non-zero and satisfy
//
//   |p_hat - p| <= (1e-12 + 128 * 2^-52 * max(|lo|, |hi|) / h) * p,
//
// p = f(zeta_q) / sum f. Below 1e-290 the exact KDE itself nears the
// subnormal range, where its own rounding reaches whole percents, so only
// finiteness and non-negativity are checked there. The call must succeed
// when the exact total density is >= 1e-290 and fail when it underflows.
void ExpectMatchesOracle(const GaussianKde& kde, const std::vector<double>& grid,
                         const std::string& label) {
  std::vector<double> exact(grid.size());
  double exact_total = 0.0;
  for (size_t q = 0; q < grid.size(); ++q) {
    exact[q] = kde.Evaluate(grid[q]);
    exact_total += exact[q];
  }
  auto pmf = kde.PmfOnGrid(grid);
  if (exact_total == 0.0) {
    EXPECT_FALSE(pmf.ok()) << label << ": exact mass underflowed, kernel did not";
    return;
  }
  if (exact_total >= 1e-290) {
    EXPECT_TRUE(pmf.ok()) << label << ": " << pmf.status().ToString();
  }
  if (!pmf.ok()) return;
  EXPECT_EQ(pmf->size(), grid.size()) << label;
  const double magnitude = std::max(std::fabs(grid.front()), std::fabs(grid.back()));
  const double bound = 1e-12 + 128.0 * 0x1p-52 * magnitude / kde.bandwidth();
  for (size_t q = 0; q < grid.size(); ++q) {
    const double p_hat = (*pmf)[q];
    const double p = exact[q] / exact_total;
    EXPECT_TRUE(std::isfinite(p_hat) && p_hat >= 0.0) << label << " q=" << q << " " << p_hat;
    if (!(exact[q] >= 1e-290)) continue;
    EXPECT_GT(p_hat, 0.0) << label << " q=" << q << " exact " << p;
    EXPECT_LE(std::fabs(p_hat - p), bound * p)
        << label << " q=" << q << " exact " << p << " kernel " << p_hat;
  }
}

std::vector<OracleCase> OracleCases() {
  common::Rng rng(20);
  std::vector<OracleCase> cases;
  auto normals = [&](size_t n, double mean, double sd) {
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.Normal(mean, sd);
    return xs;
  };
  auto range_of = [](const std::vector<double>& xs) {
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    return std::pair<double, double>{*lo, *hi};
  };
  {
    // A benchmark-shaped (u, s) group on its u-stratum's grid.
    std::vector<double> group = normals(1050, 1.0, 1.0);
    std::vector<double> stratum = normals(450, 0.0, 1.0);
    stratum.insert(stratum.end(), group.begin(), group.end());
    const auto [lo, hi] = range_of(stratum);
    cases.push_back({"bench_group", group, 0.0, lo, hi});
  }
  {
    std::vector<double> xs = normals(500, 0.0, 1.0);
    for (double& x : xs) x = std::exp(x);
    const auto [lo, hi] = range_of(xs);
    cases.push_back({"lognormal", xs, 0.0, lo, hi});
  }
  {
    std::vector<double> xs = normals(300, -6.0, 0.3);
    const std::vector<double> right = normals(300, 6.0, 0.3);
    xs.insert(xs.end(), right.begin(), right.end());
    const auto [lo, hi] = range_of(xs);
    cases.push_back({"bimodal", xs, 0.0, lo, hi});
  }
  {
    std::vector<double> xs(500);
    for (double& x : xs) x = std::tan(std::numbers::pi * (rng.Uniform() - 0.5));
    const auto [lo, hi] = range_of(xs);
    cases.push_back({"cauchy", xs, 0.0, lo, hi});
  }
  cases.push_back({"constant", std::vector<double>(150, 1.7), 0.0, 1.7, 1.7});
  {
    // A group at -8 whose stratum (with a group at +8) spans +-8.
    std::vector<double> xs = normals(400, -8.0, 0.5);
    cases.push_back({"far_group", xs, 0.0, -8.0, 8.0});
  }
  {
    const std::vector<double> xs = normals(400, 0.0, 1.0);
    const auto [lo, hi] = range_of(xs);
    cases.push_back({"normal_h1e-3", xs, 1e-3, lo, hi});
    cases.push_back({"normal_h0.05", xs, 0.05, lo, hi});
    // Samples reaching well outside the grid.
    cases.push_back({"outside_grid", normals(400, 0.0, 3.0), 0.0, -1.0, 1.0});
  }
  {
    std::vector<double> xs = normals(400, 1e6, 1.0);
    const auto [lo, hi] = range_of(xs);
    cases.push_back({"offset_1e6", xs, 0.0, lo, hi});
  }
  {
    std::vector<double> xs(300);
    for (double& x : xs) x = 1.7 + 1e-9 * rng.Uniform();
    const auto [lo, hi] = range_of(xs);
    cases.push_back({"near_constant", xs, 0.0, lo, hi});
  }
  cases.push_back({"single_sample", {0.3}, 0.2, -1.0, 1.0});
  return cases;
}

TEST(KdeTest, GridKernelMatchesExactOracle) {
  for (const OracleCase& c : OracleCases()) {
    auto kde = c.bandwidth > 0.0 ? GaussianKde::Fit(c.samples, c.bandwidth)
                                 : GaussianKde::FitSilverman(c.samples);
    ASSERT_TRUE(kde.ok()) << c.name;
    for (size_t n : {1, 2, 3, 32, 512, 2048}) {
      ExpectMatchesOracle(*kde, DesignGrid(c.lo, c.hi, n), c.name + " n_Q=" + std::to_string(n));
    }
  }
}

TEST(KdeTest, GridKernelMatchesExactOracleForAnyStepToBandwidthRatio) {
  // step / h from 0.01 to 1000, densely through 36-40 where a factored
  // exp(-z d) or exp(-d^2 / 2) alone would overflow or underflow, and
  // through 70-80 where the midpoint terms turn subnormal and then vanish,
  // with samples just off the grid midpoints (the largest z a sample can
  // have).
  std::vector<double> ratios;
  for (int e = -20; e <= 30; ++e) ratios.push_back(std::pow(10.0, e / 10.0));
  for (double r = 36.0; r <= 40.0; r += 0.125) ratios.push_back(r);
  for (double r = 70.0; r <= 80.0; r += 0.25) ratios.push_back(r);
  const size_t n = 16;
  for (double ratio : ratios) {
    const double h = 0.25;
    const double step = ratio * h;
    std::vector<double> xs;
    for (double k : {2.5, 7.5, 12.5}) {
      xs.push_back((k + 1e-3) * step);
      xs.push_back((k - 1e-7) * step);
    }
    auto kde = GaussianKde::Fit(xs, h);
    ASSERT_TRUE(kde.ok());
    ExpectMatchesOracle(*kde, DesignGrid(0.0, step * static_cast<double>(n - 1), n),
                        "step/h=" + std::to_string(ratio));
  }
}

// PmfOnGrid's bytes under the scalar walk and the dispatched one.
void ExpectSameBytesAcrossDispatch(const GaussianKde& kde, const std::vector<double>& grid,
                                   const std::string& label) {
  const bool was_forced = common::simd::ForcedScalar();
  common::simd::SetForceScalar(true);
  auto scalar = kde.PmfOnGrid(grid);
  common::simd::SetForceScalar(false);
  auto dispatched = kde.PmfOnGrid(grid);
  common::simd::SetForceScalar(was_forced);
  ASSERT_EQ(scalar.ok(), dispatched.ok()) << label;
  if (!scalar.ok()) return;
  ASSERT_EQ(scalar->size(), dispatched->size()) << label;
  EXPECT_EQ(0, std::memcmp(scalar->data(), dispatched->data(), scalar->size() * sizeof(double)))
      << label;
}

TEST(KdeTest, GridKernelBitIdenticalAcrossSimdDispatch) {
  const std::vector<size_t> sizes = {1, 2, 3, 4, 5, 512};
  for (const OracleCase& c : OracleCases()) {
    auto kde = c.bandwidth > 0.0 ? GaussianKde::Fit(c.samples, c.bandwidth)
                                 : GaussianKde::FitSilverman(c.samples);
    ASSERT_TRUE(kde.ok()) << c.name;
    for (size_t n : sizes)
      ExpectSameBytesAcrossDispatch(*kde, DesignGrid(c.lo, c.hi, n),
                                    c.name + " n_Q=" + std::to_string(n));
  }
  // Samples below lo, above hi and exactly on grid points: brackets at 0,
  // nq - 1 and nq, where one of the two walks is empty.
  common::Rng rng(21);
  for (size_t n : sizes) {
    const std::vector<double> grid = DesignGrid(-2.0, 3.0, n);
    std::vector<double> xs = {-2.4, -9.0, grid.front(), grid[n / 2], grid.back(), 3.1, 11.0};
    for (int i = 0; i < 40; ++i) xs.push_back(rng.Uniform(-2.5, 3.5));
    auto kde = GaussianKde::Fit(xs, 0.3);
    ASSERT_TRUE(kde.ok());
    ExpectSameBytesAcrossDispatch(*kde, grid, "edges n_Q=" + std::to_string(n));
  }
}

TEST(KdeTest, ConstantChannelSplitsEvenlyOnEvenGrids) {
  // A constant channel sits exactly between the two middle points of an
  // even grid over its +-0.5-widened range: the mass must split evenly,
  // as in the exact KDE, and at n_Q <= 12 (step/h >= 91) it underflows in
  // both.
  auto kde = GaussianKde::FitSilverman(std::vector<double>(150, 1.7));
  ASSERT_TRUE(kde.ok());
  ASSERT_EQ(kde->bandwidth(), 1e-3);
  for (size_t n = 2; n <= 26; n += 2) {
    const std::vector<double> grid = DesignGrid(1.7, 1.7, n);
    ExpectMatchesOracle(*kde, grid, "constant n_Q=" + std::to_string(n));
    auto pmf = kde->PmfOnGrid(grid);
    EXPECT_EQ(pmf.ok(), n > 12) << n;
    if (!pmf.ok()) continue;
    EXPECT_NEAR((*pmf)[n / 2 - 1], 0.5, 0.02) << n;
    EXPECT_NEAR((*pmf)[n / 2], 0.5, 0.02) << n;
  }
}

TEST(KdeTest, RejectsNonUniformGrid) {
  auto kde = GaussianKde::Fit({0.0, 1.0}, 0.5);
  ASSERT_TRUE(kde.ok());
  EXPECT_FALSE(kde->PmfOnGrid({0.0, 0.1, 1.0}).ok());
  EXPECT_FALSE(kde->PmfOnGrid({1.0, 0.5, 0.0}).ok());
  EXPECT_TRUE(kde->PmfOnGrid({-1.0, 0.0, 1.0}).ok());
}

TEST(KdeTest, PmfOnGridNormalized) {
  auto kde = GaussianKde::Fit({0.0, 0.5}, 0.3);
  ASSERT_TRUE(kde.ok());
  auto pmf = kde->PmfOnGrid(Grid(-2.0, 2.0, 41));
  ASSERT_TRUE(pmf.ok());
  double total = 0.0;
  for (double p : *pmf) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(KdeTest, PmfErrorsWhenGridFarOutsideData) {
  auto kde = GaussianKde::Fit({0.0}, 0.01);
  ASSERT_TRUE(kde.ok());
  auto pmf = kde->PmfOnGrid(Grid(1e6, 2e6, 5));
  EXPECT_FALSE(pmf.ok());
}

TEST(KdeTest, LargerBandwidthSmoothsPeaks) {
  const std::vector<double> xs = {0.0, 0.0, 0.0, 5.0};
  auto sharp = GaussianKde::Fit(xs, 0.1);
  auto smooth = GaussianKde::Fit(xs, 2.0);
  ASSERT_TRUE(sharp.ok() && smooth.ok());
  EXPECT_GT(sharp->Evaluate(0.0), smooth->Evaluate(0.0));
  EXPECT_LT(sharp->Evaluate(2.5), smooth->Evaluate(2.5));
}

TEST(KdeTest, RejectsBadInputs) {
  EXPECT_FALSE(GaussianKde::Fit({}, 1.0).ok());
  EXPECT_FALSE(GaussianKde::Fit({0.0}, 0.0).ok());
  EXPECT_FALSE(GaussianKde::Fit({0.0}, -1.0).ok());
  EXPECT_FALSE(GaussianKde::Fit({std::nan("")}, 1.0).ok());
  EXPECT_FALSE(GaussianKde::FitSilverman({}).ok());
}

TEST(KdeTest, SilvermanBandwidthRecorded) {
  common::Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.Normal());
  auto kde = GaussianKde::FitSilverman(xs);
  ASSERT_TRUE(kde.ok());
  EXPECT_GT(kde->bandwidth(), 0.0);
  EXPECT_EQ(kde->sample_size(), 100u);
}

}  // namespace
}  // namespace otfair::stats
