#include "ot/barycenter.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/marginals.h"
#include "core/support_grid.h"
#include "ot/geodesic.h"
#include "ot/monotone.h"
#include "ot/plan.h"

namespace otfair::ot {
namespace {

std::vector<double> Grid(double lo, double hi, size_t n) {
  std::vector<double> g(n);
  for (size_t i = 0; i < n; ++i)
    g[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  return g;
}

/// Reference two-measure barycenter: the monotone staircase (with its
/// 1e-15 rule) stored as a CSR plan, each coupled chunk (x0, x1, m)
/// interpolated to an atom at (1 - t) x0 + t x1, coincident positions
/// merged. The sweep must reproduce it bit for bit.
DiscreteMeasure StaircaseBarycenter(const DiscreteMeasure& mu0, const DiscreteMeasure& mu1,
                                    double t) {
  auto coupling = SolveMonotone1D(mu0, mu1);
  EXPECT_TRUE(coupling.ok());
  const std::vector<double>& xs = coupling->sorted_source.support();
  const std::vector<double>& ys = coupling->sorted_target.support();
  const SparsePlan plan =
      SparsePlan::FromEntries(std::move(coupling->entries), xs.size(), ys.size());
  std::vector<double> support;
  std::vector<double> weights;
  for (size_t i = 0; i < plan.rows(); ++i) {
    const SparsePlan::RowView row = plan.Row(i);
    for (size_t k = 0; k < row.nnz; ++k) {
      const double pos = (1.0 - t) * xs[i] + t * ys[row.cols[k]];
      if (!support.empty() && pos == support.back()) {
        weights.back() += row.values[k];
      } else {
        support.push_back(pos);
        weights.push_back(row.values[k]);
      }
    }
  }
  auto out = DiscreteMeasure::Create(std::move(support), std::move(weights));
  EXPECT_TRUE(out.ok());
  return *out;
}

/// Reference N-measure sweep without a roundoff floor: every positive
/// chunk is emitted at a position accumulated from 0, and a measure that
/// runs out pins to its last atom until all have run out.
DiscreteMeasure UnflooredSweepBarycenter(const std::vector<DiscreteMeasure>& measures,
                                         std::vector<double> lam) {
  double total = 0.0;
  for (double l : lam) total += l;
  for (double& l : lam) l /= total;
  const size_t num = measures.size();
  std::vector<size_t> idx(num, 0);
  std::vector<double> remaining(num);
  std::vector<bool> exhausted(num, false);
  for (size_t s = 0; s < num; ++s) remaining[s] = measures[s].weight_at(0);
  std::vector<double> support;
  std::vector<double> weights;
  while (true) {
    bool all_exhausted = true;
    double delta = 0.0;
    for (size_t s = 0; s < num; ++s) {
      if (exhausted[s]) continue;
      delta = all_exhausted ? remaining[s] : std::min(delta, remaining[s]);
      all_exhausted = false;
    }
    if (all_exhausted) break;
    double pos = 0.0;
    for (size_t s = 0; s < num; ++s) pos += lam[s] * measures[s].support_at(idx[s]);
    if (delta > 0.0) {
      if (!support.empty() && pos == support.back()) {
        weights.back() += delta;
      } else {
        support.push_back(pos);
        weights.push_back(delta);
      }
    }
    for (size_t s = 0; s < num; ++s) {
      if (exhausted[s]) continue;
      remaining[s] -= delta;
      if (remaining[s] > 0.0) continue;
      if (idx[s] + 1 < measures[s].size()) {
        remaining[s] = measures[s].weight_at(++idx[s]);
      } else {
        exhausted[s] = true;
      }
    }
  }
  auto out = DiscreteMeasure::Create(std::move(support), std::move(weights));
  EXPECT_TRUE(out.ok());
  return *out;
}

/// KDE marginals of `s_levels` normal classes on their shared n_q grid,
/// as the designer builds them: tails far below 1e-15 included.
std::vector<DiscreteMeasure> DesignMarginals(size_t s_levels, size_t n_q, uint64_t seed,
                                             std::vector<double>* grid) {
  common::Rng rng(seed);
  std::vector<std::vector<double>> samples(s_levels);
  std::vector<double> stratum;
  for (size_t s = 0; s < s_levels; ++s) {
    const double mean = 1.5 * static_cast<double>(s);
    const double sd = 0.6 + 0.3 * static_cast<double>(s % 3);
    for (int i = 0; i < 150 + 70 * static_cast<int>(s); ++i)
      samples[s].push_back(rng.Normal(mean, sd));
    stratum.insert(stratum.end(), samples[s].begin(), samples[s].end());
  }
  auto support = core::SupportGrid::FromSamples(stratum, n_q);
  EXPECT_TRUE(support.ok());
  *grid = support->points();
  std::vector<DiscreteMeasure> marginals;
  for (const std::vector<double>& x : samples) {
    auto marginal = core::InterpolateMarginal(x, *support);
    EXPECT_TRUE(marginal.ok());
    marginals.push_back(*marginal);
  }
  return marginals;
}

void ExpectSameBits(const DiscreteMeasure& got, const DiscreteMeasure& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.support()[i], &want.support()[i], sizeof(double)), 0)
        << "support " << i << ": " << got.support_at(i) << " vs " << want.support_at(i);
    EXPECT_EQ(std::memcmp(&got.weights()[i], &want.weights()[i], sizeof(double)), 0)
        << "weight " << i << ": " << got.weight_at(i) << " vs " << want.weight_at(i);
  }
}

TEST(QuantileBarycenterTest, EndpointsRecoverInputs) {
  auto mu0 = DiscreteMeasure::FromSamples({0.0, 1.0, 2.0});
  auto mu1 = DiscreteMeasure::FromSamples({10.0, 11.0, 12.0});
  auto at0 = QuantileBarycenter1D(*mu0, *mu1, 0.0);
  auto at1 = QuantileBarycenter1D(*mu0, *mu1, 1.0);
  ASSERT_TRUE(at0.ok() && at1.ok());
  EXPECT_EQ(at0->support(), mu0->support());
  EXPECT_EQ(at1->support(), mu1->support());
}

TEST(QuantileBarycenterTest, MidpointOfTranslatedMeasures) {
  // Barycenter of mu and mu shifted by c is mu shifted by t*c.
  auto mu0 = DiscreteMeasure::FromSamples({0.0, 1.0, 4.0});
  auto mu1 = DiscreteMeasure::FromSamples({6.0, 7.0, 10.0});
  auto mid = QuantileBarycenter1D(*mu0, *mu1, 0.5);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->support(), (std::vector<double>{3.0, 4.0, 7.0}));
}

TEST(QuantileBarycenterTest, MeanInterpolatesLinearly) {
  common::Rng rng(3);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) xs.push_back(rng.Normal(0.0, 1.0));
  for (int i = 0; i < 70; ++i) ys.push_back(rng.Normal(5.0, 2.0));
  auto mu0 = DiscreteMeasure::FromSamples(xs);
  auto mu1 = DiscreteMeasure::FromSamples(ys);
  for (double t : {0.25, 0.5, 0.75}) {
    auto bary = QuantileBarycenter1D(*mu0, *mu1, t);
    ASSERT_TRUE(bary.ok());
    EXPECT_NEAR(bary->Mean(), (1.0 - t) * mu0->Mean() + t * mu1->Mean(), 1e-10);
  }
}

TEST(QuantileBarycenterTest, FairBarycentreEquidistant) {
  // W2(mu0, nu) == W2(mu1, nu) at t = 0.5 (centre of the geodesic).
  common::Rng rng(9);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 40; ++i) xs.push_back(rng.Normal(-2.0, 1.0));
  for (int i = 0; i < 40; ++i) ys.push_back(rng.Normal(3.0, 0.5));
  auto mu0 = DiscreteMeasure::FromSamples(xs);
  auto mu1 = DiscreteMeasure::FromSamples(ys);
  auto nu = QuantileBarycenter1D(*mu0, *mu1, 0.5);
  ASSERT_TRUE(nu.ok());
  auto w0 = Wasserstein1D(*mu0, *nu, 2);
  auto w1 = Wasserstein1D(*mu1, *nu, 2);
  ASSERT_TRUE(w0.ok() && w1.ok());
  EXPECT_NEAR(*w0, *w1, 1e-9);
}

TEST(QuantileBarycenterTest, GeodesicAdditivity) {
  // W2(mu0, nu_t) == t * W2(mu0, mu1) along the geodesic.
  auto mu0 = DiscreteMeasure::FromSamples({0.0, 2.0, 4.0, 8.0});
  auto mu1 = DiscreteMeasure::FromSamples({1.0, 5.0, 9.0, 13.0});
  auto full = Wasserstein1D(*mu0, *mu1, 2);
  ASSERT_TRUE(full.ok());
  for (double t : {0.2, 0.6}) {
    auto nu = QuantileBarycenter1D(*mu0, *mu1, t);
    ASSERT_TRUE(nu.ok());
    auto part = Wasserstein1D(*mu0, *nu, 2);
    ASSERT_TRUE(part.ok());
    EXPECT_NEAR(*part, t * *full, 1e-9) << "t=" << t;
  }
}

TEST(QuantileBarycenterTest, RejectsBadT) {
  auto mu = DiscreteMeasure::FromSamples({0.0, 1.0});
  EXPECT_FALSE(QuantileBarycenter1D(*mu, *mu, -0.1).ok());
  EXPECT_FALSE(QuantileBarycenter1D(*mu, *mu, 1.1).ok());
}

TEST(GridBarycenterTest, MassAndMeanPreservedInsideGrid) {
  auto mu0 = DiscreteMeasure::FromSamples({1.0, 2.0, 3.0});
  auto mu1 = DiscreteMeasure::FromSamples({5.0, 6.0, 7.0});
  const std::vector<double> grid = Grid(0.0, 10.0, 101);
  auto bary = QuantileBarycenterOnGrid(*mu0, *mu1, 0.5, grid);
  ASSERT_TRUE(bary.ok());
  EXPECT_LT(bary->NormalizationError(), 1e-12);
  // Interior projection preserves the mean exactly.
  auto atoms = QuantileBarycenter1D(*mu0, *mu1, 0.5);
  ASSERT_TRUE(atoms.ok());
  EXPECT_NEAR(bary->Mean(), atoms->Mean(), 1e-10);
}

TEST(GridBarycenterTest, SupportsIsTheGrid) {
  auto mu0 = DiscreteMeasure::FromSamples({1.0, 2.0});
  auto mu1 = DiscreteMeasure::FromSamples({3.0, 4.0});
  const std::vector<double> grid = Grid(0.0, 5.0, 11);
  auto bary = QuantileBarycenterOnGrid(*mu0, *mu1, 0.5, grid);
  ASSERT_TRUE(bary.ok());
  EXPECT_EQ(bary->support(), grid);
}

TEST(BregmanBarycenterTest, AgreesWithQuantileMethodOnGaussians) {
  common::Rng rng(41);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.Normal(-1.0, 0.7));
  for (int i = 0; i < 200; ++i) ys.push_back(rng.Normal(2.0, 0.7));
  const std::vector<double> grid = Grid(-4.0, 5.0, 60);
  auto mu0 = DiscreteMeasure::FromSamples(xs);
  auto mu1 = DiscreteMeasure::FromSamples(ys);

  auto quantile = QuantileBarycenterOnGrid(*mu0, *mu1, 0.5, grid);
  ASSERT_TRUE(quantile.ok());
  BregmanBarycenterOptions options;
  options.epsilon = 0.05;
  auto bregman = BregmanBarycenter({*mu0, *mu1}, {0.5, 0.5}, grid, options);
  ASSERT_TRUE(bregman.ok());

  // Entropic smoothing blurs the pmf, but the first moment should agree.
  EXPECT_NEAR(bregman->Mean(), quantile->Mean(), 0.15);
}

TEST(BregmanBarycenterTest, DegenerateWeightRecoversThatMeasureMean) {
  auto mu0 = DiscreteMeasure::FromSamples({0.0, 0.5, 1.0});
  auto mu1 = DiscreteMeasure::FromSamples({8.0, 9.0, 10.0});
  const std::vector<double> grid = Grid(-1.0, 11.0, 80);
  BregmanBarycenterOptions options;
  options.epsilon = 0.05;
  auto bary = BregmanBarycenter({*mu0, *mu1}, {1.0, 0.0}, grid, options);
  ASSERT_TRUE(bary.ok());
  EXPECT_NEAR(bary->Mean(), mu0->Mean(), 0.2);
}

TEST(BregmanBarycenterTest, LambdasNormalized) {
  auto mu0 = DiscreteMeasure::FromSamples({0.0, 1.0});
  auto mu1 = DiscreteMeasure::FromSamples({4.0, 5.0});
  const std::vector<double> grid = Grid(-1.0, 6.0, 50);
  auto a = BregmanBarycenter({*mu0, *mu1}, {0.5, 0.5}, grid, {});
  auto b = BregmanBarycenter({*mu0, *mu1}, {2.0, 2.0}, grid, {});
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < grid.size(); ++i)
    EXPECT_NEAR(a->weight_at(i), b->weight_at(i), 1e-9);
}

TEST(BregmanBarycenterTest, RejectsBadInputs) {
  auto mu = DiscreteMeasure::FromSamples({0.0, 1.0});
  const std::vector<double> grid = Grid(0.0, 1.0, 10);
  EXPECT_FALSE(BregmanBarycenter({}, {}, grid, {}).ok());
  EXPECT_FALSE(BregmanBarycenter({*mu}, {0.5, 0.5}, grid, {}).ok());
  EXPECT_FALSE(BregmanBarycenter({*mu}, {0.0}, grid, {}).ok());
  EXPECT_FALSE(BregmanBarycenter({*mu}, {-1.0}, grid, {}).ok());
}

TEST(QuantileBarycenterNTest, TwoMeasureCaseMatchesPairwise) {
  auto mu0 = DiscreteMeasure::Create({0.0, 1.0, 2.0}, {0.2, 0.5, 0.3});
  auto mu1 = DiscreteMeasure::Create({1.0, 3.0, 4.0, 6.0}, {0.1, 0.4, 0.3, 0.2});
  ASSERT_TRUE(mu0.ok() && mu1.ok());
  for (double t : {0.0, 0.25, 0.5, 1.0}) {
    auto pairwise = QuantileBarycenter1D(*mu0, *mu1, t);
    auto n_measure = QuantileBarycenter1D({*mu0, *mu1}, {1.0 - t, t});
    ASSERT_TRUE(pairwise.ok() && n_measure.ok());
    EXPECT_EQ(pairwise->Mean(), n_measure->Mean());
    EXPECT_EQ(pairwise->Variance(), n_measure->Variance());
    // Same quantile function everywhere, not just matching moments.
    for (double q : {0.05, 0.3, 0.5, 0.8, 0.95})
      EXPECT_EQ(pairwise->Quantile(q), n_measure->Quantile(q)) << "t=" << t;
  }
}

TEST(QuantileBarycenterNTest, TwoMeasureSweepMatchesStaircaseBitForBit) {
  // The designer's |S| = 2 barycenter is the sweep with {1 - t, t}; on the
  // KDE marginals it designs from, it must give the staircase's atoms.
  for (size_t n_q : {16, 64, 512}) {
    std::vector<double> grid;
    const std::vector<DiscreteMeasure> marginals = DesignMarginals(2, n_q, 7 + n_q, &grid);
    for (double t : {0.0, 0.1, 0.3, 0.5, 0.9, 1.0}) {
      SCOPED_TRACE("n_q=" + std::to_string(n_q) + " t=" + std::to_string(t));
      const DiscreteMeasure want = StaircaseBarycenter(marginals[0], marginals[1], t);
      auto sweep = QuantileBarycenter1D(marginals, {1.0 - t, t});
      auto pairwise = QuantileBarycenter1D(marginals[0], marginals[1], t);
      ASSERT_TRUE(sweep.ok() && pairwise.ok());
      ExpectSameBits(*sweep, want);
      ExpectSameBits(*pairwise, want);
      auto on_grid = QuantileBarycenterOnGrid(marginals, {1.0 - t, t}, grid);
      auto want_on_grid = ProjectToGrid(want, grid);
      ASSERT_TRUE(on_grid.ok() && want_on_grid.ok());
      ExpectSameBits(*on_grid, *want_on_grid);
    }
  }
}

TEST(QuantileBarycenterNTest, RoundoffFloorMovesWeightsByLessThan1e14) {
  // Against a sweep that emits every positive chunk and pins exhausted
  // measures, the 1e-15 floor moves the on-grid weights only by roundoff:
  // at |S| = 3 and 4 with uniform weights, and at |S| = 2 with explicit
  // weights, which the sweep uses as stored rather than as {1 - l1, l1}.
  for (size_t n_q : {64, 512}) {
    for (size_t s_levels : {3, 4}) {
      SCOPED_TRACE("n_q=" + std::to_string(n_q) + " |S|=" + std::to_string(s_levels));
      std::vector<double> grid;
      const std::vector<DiscreteMeasure> marginals =
          DesignMarginals(s_levels, n_q, 11 + n_q, &grid);
      const std::vector<double> lam(s_levels, 1.0 / static_cast<double>(s_levels));
      auto got = QuantileBarycenterOnGrid(marginals, lam, grid);
      auto want = ProjectToGrid(UnflooredSweepBarycenter(marginals, lam), grid);
      ASSERT_TRUE(got.ok() && want.ok());
      for (size_t q = 0; q < grid.size(); ++q)
        EXPECT_NEAR(got->weight_at(q), want->weight_at(q), 1e-14) << "q=" << q;
    }
    std::vector<double> grid;
    const std::vector<DiscreteMeasure> marginals = DesignMarginals(2, n_q, 13 + n_q, &grid);
    for (const std::vector<double>& raw :
         {std::vector<double>{0.3, 0.7}, std::vector<double>{1.0, 2.0}}) {
      const std::vector<double> lam = {raw[0] / (raw[0] + raw[1]), raw[1] / (raw[0] + raw[1])};
      auto got = QuantileBarycenterOnGrid(marginals, lam, grid);
      auto want = ProjectToGrid(StaircaseBarycenter(marginals[0], marginals[1], lam[1]), grid);
      ASSERT_TRUE(got.ok() && want.ok());
      for (size_t q = 0; q < grid.size(); ++q)
        EXPECT_NEAR(got->weight_at(q), want->weight_at(q), 1e-14)
            << "n_q=" << n_q << " lambda1=" << lam[1] << " q=" << q;
    }
  }
}

TEST(QuantileBarycenterNTest, WeightedQuantileAveragingOfTranslates) {
  // Translates of one shape: the barycenter is the lambda-weighted
  // translate, exactly (the 1-D closed form).
  auto base = DiscreteMeasure::Create({0.0, 1.0, 2.0}, {0.25, 0.5, 0.25});
  ASSERT_TRUE(base.ok());
  std::vector<DiscreteMeasure> measures;
  const std::vector<double> shifts = {0.0, 2.0, 5.0};
  for (double shift : shifts) {
    std::vector<double> support;
    for (double x : base->support()) support.push_back(x + shift);
    measures.push_back(*DiscreteMeasure::Create(support, base->weights()));
  }
  const std::vector<double> lambdas = {0.5, 0.3, 0.2};
  auto bary = QuantileBarycenter1D(measures, lambdas);
  ASSERT_TRUE(bary.ok());
  double expected_shift = 0.0;
  for (size_t i = 0; i < shifts.size(); ++i) expected_shift += lambdas[i] * shifts[i];
  EXPECT_NEAR(bary->Mean(), base->Mean() + expected_shift, 1e-12);
  EXPECT_NEAR(bary->Variance(), base->Variance(), 1e-12);
}

TEST(QuantileBarycenterNTest, SingleMeasureIsIdentity) {
  auto mu = DiscreteMeasure::Create({0.0, 2.0, 5.0}, {0.3, 0.4, 0.3});
  ASSERT_TRUE(mu.ok());
  auto bary = QuantileBarycenter1D({*mu}, {1.0});
  ASSERT_TRUE(bary.ok());
  ASSERT_EQ(bary->size(), mu->size());
  for (size_t i = 0; i < mu->size(); ++i) {
    EXPECT_DOUBLE_EQ(bary->support_at(i), mu->support_at(i));
    EXPECT_NEAR(bary->weight_at(i), mu->weight_at(i), 1e-15);
  }
}

TEST(QuantileBarycenterNTest, CrossCheckAgainstBregman) {
  // Three Gaussians-on-a-grid: the exact quantile barycenter and the
  // entropic Bregman barycenter must agree up to the entropic smoothing.
  std::vector<double> grid;
  for (int i = 0; i <= 120; ++i) grid.push_back(-4.0 + i * (12.0 / 120.0));
  auto gaussian_on = [&](double mean) {
    std::vector<double> w;
    for (double x : grid) w.push_back(std::exp(-0.5 * (x - mean) * (x - mean)));
    return *DiscreteMeasure::Create(grid, w);
  };
  const std::vector<DiscreteMeasure> measures = {gaussian_on(-1.0), gaussian_on(1.5),
                                                 gaussian_on(4.0)};
  const std::vector<double> lambdas = {0.5, 0.25, 0.25};
  auto exact = QuantileBarycenterOnGrid(measures, lambdas, grid);
  ASSERT_TRUE(exact.ok());
  BregmanBarycenterOptions options;
  options.epsilon = 0.05;
  auto entropic = BregmanBarycenter(measures, lambdas, grid, options);
  ASSERT_TRUE(entropic.ok());
  // Means agree tightly; the entropic one is smoothed, so variances only
  // roughly.
  EXPECT_NEAR(exact->Mean(), entropic->Mean(), 0.05);
  EXPECT_NEAR(exact->Variance(), entropic->Variance(), 0.3);
}

TEST(QuantileBarycenterNTest, RejectsBadArguments) {
  auto mu = DiscreteMeasure::Create({0.0, 1.0}, {0.5, 0.5});
  ASSERT_TRUE(mu.ok());
  EXPECT_FALSE(QuantileBarycenter1D({}, {}).ok());
  EXPECT_FALSE(QuantileBarycenter1D({*mu}, {0.5, 0.5}).ok());
  EXPECT_FALSE(QuantileBarycenter1D({*mu, *mu}, {0.5, -0.5}).ok());
  EXPECT_FALSE(QuantileBarycenter1D({*mu, *mu}, {0.0, 0.0}).ok());
  auto unsorted = DiscreteMeasure::Create({2.0, 0.0}, {0.5, 0.5});
  ASSERT_TRUE(unsorted.ok());
  EXPECT_FALSE(QuantileBarycenter1D({*unsorted, *mu}, {0.5, 0.5}).ok());
}

}  // namespace
}  // namespace otfair::ot
