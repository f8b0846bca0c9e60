#include "ot/monotone.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/cost.h"
#include "ot/plan.h"

namespace otfair::ot {
namespace {

DiscreteMeasure Uniform(std::vector<double> support) {
  auto m = DiscreteMeasure::Uniform(std::move(support));
  EXPECT_TRUE(m.ok());
  return *m;
}

TEST(MonotoneTest, EqualSizeUniformGivesDiagonalMatching) {
  auto coupling = SolveMonotone1D(Uniform({0.0, 1.0, 2.0}), Uniform({5.0, 6.0, 7.0}));
  ASSERT_TRUE(coupling.ok());
  ASSERT_EQ(coupling->entries.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(coupling->entries[k].i, k);
    EXPECT_EQ(coupling->entries[k].j, k);
    EXPECT_NEAR(coupling->entries[k].mass, 1.0 / 3.0, 1e-12);
  }
}

TEST(MonotoneTest, CouplingIsMonotone) {
  common::Rng rng(5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 40; ++i) xs.push_back(rng.Normal());
  for (int i = 0; i < 25; ++i) ys.push_back(rng.Normal(2.0, 0.5));
  auto coupling = SolveMonotone1D(*DiscreteMeasure::FromSamples(xs),
                                  *DiscreteMeasure::FromSamples(ys));
  ASSERT_TRUE(coupling.ok());
  for (size_t k = 1; k < coupling->entries.size(); ++k) {
    EXPECT_GE(coupling->entries[k].i, coupling->entries[k - 1].i);
    EXPECT_GE(coupling->entries[k].j, coupling->entries[k - 1].j);
  }
}

TEST(MonotoneTest, MarginalsExactlySatisfied) {
  auto mu = DiscreteMeasure::Create({0.0, 1.0, 2.0}, {0.5, 0.2, 0.3});
  auto nu = DiscreteMeasure::Create({-1.0, 4.0}, {0.6, 0.4});
  ASSERT_TRUE(mu.ok() && nu.ok());
  auto coupling = SolveMonotone1D(*mu, *nu);
  ASSERT_TRUE(coupling.ok());
  TransportPlan plan{
      SparsePlan::FromEntries(coupling->entries, mu->size(), nu->size()).ToDense(), 0.0};
  EXPECT_LT(plan.MarginalError(mu->weights(), nu->weights()), 1e-12);
}

TEST(MonotoneTest, UnsortedInputsAreSortedInternally) {
  auto mu = DiscreteMeasure::Create({2.0, 0.0, 1.0}, {0.3, 0.3, 0.4});
  auto nu = DiscreteMeasure::Create({10.0, 8.0}, {0.5, 0.5});
  ASSERT_TRUE(mu.ok() && nu.ok());
  auto coupling = SolveMonotone1D(*mu, *nu);
  ASSERT_TRUE(coupling.ok());
  EXPECT_TRUE(coupling->sorted_source.IsSorted());
  EXPECT_TRUE(coupling->sorted_target.IsSorted());
  // First entry couples the smallest atoms of both measures.
  EXPECT_DOUBLE_EQ(coupling->sorted_source.support_at(coupling->entries[0].i), 0.0);
  EXPECT_DOUBLE_EQ(coupling->sorted_target.support_at(coupling->entries[0].j), 8.0);
}

TEST(MonotoneTest, EntryCountBounded) {
  common::Rng rng(31);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 64; ++i) xs.push_back(rng.Uniform());
  for (int i = 0; i < 100; ++i) ys.push_back(rng.Uniform());
  auto coupling = SolveMonotone1D(*DiscreteMeasure::FromSamples(xs),
                                  *DiscreteMeasure::FromSamples(ys));
  ASSERT_TRUE(coupling.ok());
  EXPECT_LE(coupling->entries.size(), 64u + 100u - 1u);
}

TEST(MonotoneTest, RejectsEmptyMeasure) {
  DiscreteMeasure empty;
  EXPECT_FALSE(SolveMonotone1D(empty, Uniform({1.0})).ok());
}

TEST(Wasserstein1DTest, TranslationDistance) {
  // W_p between a distribution and its translation is the shift, any p.
  std::vector<double> xs = {0.0, 1.0, 2.0, 3.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(x + 5.0);
  auto mu = DiscreteMeasure::FromSamples(xs);
  auto nu = DiscreteMeasure::FromSamples(ys);
  for (int p = 1; p <= 3; ++p) {
    auto w = Wasserstein1D(*mu, *nu, p);
    ASSERT_TRUE(w.ok());
    EXPECT_NEAR(*w, 5.0, 1e-12) << "p=" << p;
  }
}

TEST(Wasserstein1DTest, IdentityIsZero) {
  auto mu = DiscreteMeasure::FromSamples({1.0, 2.0, 3.0});
  auto w = Wasserstein1D(*mu, *mu, 2);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(*w, 0.0, 1e-12);
}

TEST(Wasserstein1DTest, SymmetricInArguments) {
  common::Rng rng(77);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 30; ++i) xs.push_back(rng.Normal());
  for (int i = 0; i < 50; ++i) ys.push_back(rng.Normal(1.0, 2.0));
  auto mu = DiscreteMeasure::FromSamples(xs);
  auto nu = DiscreteMeasure::FromSamples(ys);
  auto ab = Wasserstein1D(*mu, *nu, 2);
  auto ba = Wasserstein1D(*nu, *mu, 2);
  ASSERT_TRUE(ab.ok() && ba.ok());
  EXPECT_NEAR(*ab, *ba, 1e-10);
}

TEST(Wasserstein1DTest, TriangleInequality) {
  common::Rng rng(101);
  auto draw = [&rng](double mean, int n) {
    std::vector<double> out;
    for (int i = 0; i < n; ++i) out.push_back(rng.Normal(mean, 1.0));
    return *DiscreteMeasure::FromSamples(out);
  };
  DiscreteMeasure a = draw(0.0, 24);
  DiscreteMeasure b = draw(1.5, 36);
  DiscreteMeasure c = draw(4.0, 24);
  auto ab = Wasserstein1D(a, b, 2);
  auto bc = Wasserstein1D(b, c, 2);
  auto ac = Wasserstein1D(a, c, 2);
  ASSERT_TRUE(ab.ok() && bc.ok() && ac.ok());
  EXPECT_LE(*ac, *ab + *bc + 1e-10);
}

TEST(Wasserstein1DTest, HandComputedTwoPointCase) {
  // mu = delta_0, nu = 0.5 delta_{-1} + 0.5 delta_{1}:
  // W2^2 = 0.5 * 1 + 0.5 * 1 = 1.
  auto mu = DiscreteMeasure::Create({0.0}, {1.0});
  auto nu = DiscreteMeasure::Create({-1.0, 1.0}, {0.5, 0.5});
  auto w = Wasserstein1D(*mu, *nu, 2);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(*w, 1.0, 1e-12);
}

TEST(Wasserstein1DTest, RejectsBadOrder) {
  auto mu = DiscreteMeasure::FromSamples({0.0});
  EXPECT_FALSE(Wasserstein1D(*mu, *mu, 0).ok());
}

}  // namespace
}  // namespace otfair::ot
