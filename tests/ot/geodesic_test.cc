#include "ot/geodesic.h"

#include <gtest/gtest.h>

namespace otfair::ot {
namespace {

TEST(ProjectToGridTest, AtomOnGridPointStaysPut) {
  auto m = DiscreteMeasure::Create({1.0}, {1.0});
  auto proj = ProjectToGrid(*m, {0.0, 1.0, 2.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_DOUBLE_EQ(proj->weight_at(1), 1.0);
}

TEST(ProjectToGridTest, InteriorAtomSplitsProportionally) {
  auto m = DiscreteMeasure::Create({0.25}, {1.0});
  auto proj = ProjectToGrid(*m, {0.0, 1.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_NEAR(proj->weight_at(0), 0.75, 1e-12);
  EXPECT_NEAR(proj->weight_at(1), 0.25, 1e-12);
  EXPECT_NEAR(proj->Mean(), 0.25, 1e-12);  // mean-preserving split
}

TEST(ProjectToGridTest, OutOfRangeAtomsSnapToEnds) {
  auto m = DiscreteMeasure::Create({-5.0, 20.0}, {0.5, 0.5});
  auto proj = ProjectToGrid(*m, {0.0, 1.0, 2.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_DOUBLE_EQ(proj->weight_at(0), 0.5);
  EXPECT_DOUBLE_EQ(proj->weight_at(2), 0.5);
}

TEST(ProjectToGridTest, TotalMassPreserved) {
  auto m = DiscreteMeasure::FromSamples({0.1, 0.7, 1.3, 1.9, 2.2});
  auto proj = ProjectToGrid(*m, {0.0, 0.5, 1.0, 1.5, 2.0});
  ASSERT_TRUE(proj.ok());
  EXPECT_LT(proj->NormalizationError(), 1e-12);
}

TEST(ProjectToGridTest, RejectsNonIncreasingGrid) {
  auto m = DiscreteMeasure::FromSamples({0.5});
  EXPECT_FALSE(ProjectToGrid(*m, {1.0, 1.0}).ok());
  EXPECT_FALSE(ProjectToGrid(*m, {2.0, 1.0}).ok());
  EXPECT_FALSE(ProjectToGrid(*m, {}).ok());
}

}  // namespace
}  // namespace otfair::ot
