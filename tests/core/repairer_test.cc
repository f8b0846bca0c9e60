#include "core/repairer.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "fairness/emetric.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
  RepairPlanSet plans;
};

Fixture MakeFixture(uint64_t seed, size_t n_research = 500, size_t n_archive = 2000,
                    size_t n_q = 50) {
  common::Rng rng(seed);
  const auto config = sim::GaussianSimConfig::PaperDefault();
  auto research = sim::SimulateGaussianMixture(n_research, config, rng);
  auto archive = sim::SimulateGaussianMixture(n_archive, config, rng);
  EXPECT_TRUE(research.ok() && archive.ok());
  DesignOptions options;
  options.n_q = n_q;
  auto plans = DesignDistributionalRepair(*research, options);
  EXPECT_TRUE(plans.ok());
  return Fixture{std::move(*research), std::move(*archive), std::move(*plans)};
}

TEST(RepairerTest, RepairedValuesLieOnGrid) {
  Fixture fx = MakeFixture(1);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  for (int i = 0; i < 200; ++i) {
    const double x = fx.archive.feature(static_cast<size_t>(i), 0);
    const int u = fx.archive.u(static_cast<size_t>(i));
    const int s = fx.archive.s(static_cast<size_t>(i));
    const double repaired = repairer->RepairValue(u, s, 0, x);
    const auto& grid = repairer->plans().At(u, 0).grid;
    // Full-strength stochastic repair lands exactly on a grid point.
    double nearest = std::numeric_limits<double>::infinity();
    for (size_t q = 0; q < grid.size(); ++q)
      nearest = std::min(nearest, std::fabs(repaired - grid.point(q)));
    EXPECT_NEAR(nearest, 0.0, 1e-9);
  }
}

TEST(RepairerTest, CardinalityPreserved) {
  Fixture fx = MakeFixture(2);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->size(), fx.archive.size());
  EXPECT_EQ(repaired->dim(), fx.archive.dim());
  // Labels untouched.
  for (size_t i = 0; i < repaired->size(); ++i) {
    EXPECT_EQ(repaired->s(i), fx.archive.s(i));
    EXPECT_EQ(repaired->u(i), fx.archive.u(i));
  }
}

TEST(RepairerTest, InputDatasetNotMutated) {
  Fixture fx = MakeFixture(3);
  const double before = fx.archive.feature(0, 0);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  EXPECT_DOUBLE_EQ(fx.archive.feature(0, 0), before);
}

TEST(RepairerTest, ReducesConditionalDependenceOffSample) {
  Fixture fx = MakeFixture(4, 500, 4000);
  auto before = fairness::AggregateE(fx.archive);
  ASSERT_TRUE(before.ok());
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  auto after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(after.ok());
  // Paper Table I: unrepaired ~6-7, repaired ~0.4: demand a 5x reduction.
  EXPECT_LT(*after, *before / 5.0);
}

TEST(RepairerTest, OnSampleRepairEvenTighter) {
  Fixture fx = MakeFixture(5, 800, 800);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  auto on_sample = repairer->RepairDataset(fx.research);
  auto off_sample = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(on_sample.ok() && off_sample.ok());
  auto e_on = fairness::AggregateE(*on_sample);
  auto e_off = fairness::AggregateE(*off_sample);
  ASSERT_TRUE(e_on.ok() && e_off.ok());
  // Table I pattern: research repair is at least as good (allow slack for
  // randomness).
  EXPECT_LT(*e_on, *e_off * 2.0 + 0.1);
}

TEST(RepairerTest, DeterministicGivenSeed) {
  Fixture fx = MakeFixture(6);
  RepairOptions options;
  options.seed = 12345;
  auto ra = OffSampleRepairer::Create(fx.plans, options);
  auto rb = OffSampleRepairer::Create(fx.plans, options);
  ASSERT_TRUE(ra.ok() && rb.ok());
  auto da = ra->RepairDataset(fx.archive);
  auto db = rb->RepairDataset(fx.archive);
  ASSERT_TRUE(da.ok() && db.ok());
  for (size_t i = 0; i < da->size(); ++i) {
    for (size_t k = 0; k < da->dim(); ++k)
      EXPECT_DOUBLE_EQ(da->feature(i, k), db->feature(i, k));
  }
}

TEST(RepairerTest, StreamingMatchesBatchGivenRowSubStreams) {
  Fixture fx = MakeFixture(7, 300, 500);
  // Soft posteriors covering [0, 1], both certain ends included.
  std::vector<double> pr_s1(fx.archive.size());
  for (size_t r = 0; r < pr_s1.size(); ++r) pr_s1[r] = static_cast<double>(r % 11) / 10.0;
  for (TransportMode mode : {TransportMode::kStochastic, TransportMode::kConditionalMean}) {
    RepairOptions options;
    options.seed = 777;
    options.mode = mode;
    auto batch = OffSampleRepairer::Create(fx.plans, options);
    auto stream = OffSampleRepairer::Create(fx.plans, options);
    ASSERT_TRUE(batch.ok() && stream.ok());
    auto batch_out = batch->RepairDataset(fx.archive);
    auto soft_out = batch->RepairDatasetSoft(fx.archive, pr_s1);
    ASSERT_TRUE(batch_out.ok() && soft_out.ok());
    // Batch repair gives row i the sub-stream Rng::ForStream(seed, i) and
    // repairs channels in k order, so record-at-a-time replay under the
    // same scheme reproduces the batch output — in any row order; walk the
    // rows backwards to prove order independence. A soft row first draws
    // its class s ~ Bernoulli(pr_i) from the same sub-stream.
    for (size_t r = fx.archive.size(); r-- > 0;) {
      common::Rng rng = common::Rng::ForStream(777, r);
      common::Rng soft_rng = common::Rng::ForStream(777, r);
      const int soft_s = soft_rng.Bernoulli(pr_s1[r]) ? 1 : 0;
      for (size_t k = 0; k < fx.archive.dim(); ++k) {
        const double x = fx.archive.feature(r, k);
        EXPECT_EQ(stream->RepairValue(fx.archive.u(r), fx.archive.s(r), k, x, rng),
                  batch_out->feature(r, k))
            << "row " << r << " k " << k;
        EXPECT_EQ(stream->RepairValue(fx.archive.u(r), soft_s, k, x, soft_rng),
                  soft_out->feature(r, k))
            << "soft row " << r << " k " << k;
      }
    }
  }
}

TEST(RepairerTest, ZeroStrengthIsIdentity) {
  Fixture fx = MakeFixture(8);
  RepairOptions options;
  options.strength = 0.0;
  auto repairer = OffSampleRepairer::Create(fx.plans, options);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  for (size_t i = 0; i < 50; ++i) {
    for (size_t k = 0; k < 2; ++k)
      EXPECT_DOUBLE_EQ(repaired->feature(i, k), fx.archive.feature(i, k));
  }
}

TEST(RepairerTest, PartialStrengthInterpolates) {
  Fixture fx = MakeFixture(9, 500, 2000);
  RepairOptions half;
  half.strength = 0.5;
  half.seed = 5;
  auto repairer = OffSampleRepairer::Create(fx.plans, half);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  auto e_before = fairness::AggregateE(fx.archive);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  // Partial repair helps but less than full repair.
  EXPECT_LT(*e_after, *e_before);
  EXPECT_GT(*e_after, 0.05 * *e_before);
}

TEST(RepairerTest, ConditionalMeanModeIsDeterministic) {
  Fixture fx = MakeFixture(10);
  RepairOptions options;
  options.mode = TransportMode::kConditionalMean;
  options.seed = 1;
  auto ra = OffSampleRepairer::Create(fx.plans, options);
  options.seed = 999;  // different seed must not matter
  auto rb = OffSampleRepairer::Create(fx.plans, options);
  ASSERT_TRUE(ra.ok() && rb.ok());
  for (size_t i = 0; i < 100; ++i) {
    const double x = fx.archive.feature(i, 1);
    EXPECT_DOUBLE_EQ(ra->RepairValue(fx.archive.u(i), fx.archive.s(i), 1, x),
                     rb->RepairValue(fx.archive.u(i), fx.archive.s(i), 1, x));
  }
}

TEST(RepairerTest, ConditionalMeanModeAlsoRepairs) {
  Fixture fx = MakeFixture(11, 500, 4000);
  RepairOptions options;
  options.mode = TransportMode::kConditionalMean;
  auto repairer = OffSampleRepairer::Create(fx.plans, options);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  auto e_before = fairness::AggregateE(fx.archive);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  EXPECT_LT(*e_after, *e_before / 3.0);
}

TEST(RepairerTest, ClampStatisticsTracked) {
  Fixture fx = MakeFixture(12, 200, 3000);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired.ok());
  const RepairStats& stats = repairer->stats();
  EXPECT_EQ(stats.values_repaired, fx.archive.size() * fx.archive.dim());
  // With a small research set, some archival values fall outside the grid.
  EXPECT_GT(stats.values_clamped, 0u);
  EXPECT_LT(stats.values_clamped, stats.values_repaired / 10);
}

TEST(RepairerTest, RepairWithExternalLabels) {
  Fixture fx = MakeFixture(13, 400, 600);
  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  std::vector<int> flipped;
  for (size_t i = 0; i < fx.archive.size(); ++i) flipped.push_back(1 - fx.archive.s(i));
  auto repaired = repairer->RepairDatasetWithLabels(fx.archive, flipped);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->size(), fx.archive.size());
}

TEST(RepairerTest, RejectsBadInputs) {
  Fixture fx = MakeFixture(14, 300, 300);
  RepairOptions bad_strength;
  bad_strength.strength = 1.5;
  EXPECT_FALSE(OffSampleRepairer::Create(fx.plans, bad_strength).ok());

  auto repairer = OffSampleRepairer::Create(fx.plans, {});
  ASSERT_TRUE(repairer.ok());
  EXPECT_FALSE(
      repairer->RepairDatasetWithLabels(fx.archive, std::vector<int>(3, 0)).ok());
  EXPECT_FALSE(
      repairer
          ->RepairDatasetWithLabels(fx.archive, std::vector<int>(fx.archive.size(), 7))
          .ok());
  // A non-finite feature has no place on the grid: the batch entry points
  // refuse it, and the streaming ones CHECK-fail. The design above started
  // pool threads, so the death tests re-execute rather than fork.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> pr_s1(fx.archive.size(), 0.5);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    data::Dataset poisoned = fx.archive.Clone();
    poisoned.set_feature(fx.archive.size() / 2, 1, bad);
    EXPECT_EQ(repairer->RepairDataset(poisoned).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(repairer->RepairDatasetSoft(poisoned, pr_s1).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_DEATH(repairer->RepairValue(0, 0, 1, bad), "finite");
    EXPECT_DEATH(repairer->RepairValueSoft(0, 0.5, 1, bad), "finite");
  }
}

TEST(RepairerTest, RepairedMarginalMatchesBarycenter) {
  // Push many archival s=0 values through channel (u=0, k=0): the repaired
  // empirical distribution should approximate the barycenter.
  Fixture fx = MakeFixture(15, 2000, 1, 40);
  RepairOptions options;
  options.seed = 3;
  auto repairer = OffSampleRepairer::Create(fx.plans, options);
  ASSERT_TRUE(repairer.ok());
  const ChannelPlan& channel = fx.plans.At(0, 0);

  common::Rng rng(16);
  std::vector<double> counts(channel.grid.size(), 0.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(-1.0, 1.0);  // mu_{0,0} of the paper config
    const double repaired = repairer->RepairValue(0, 0, 0, x);
    counts[channel.grid.Locate(repaired).lower] += 1.0;
  }
  for (double& c : counts) c /= n;
  // Compare first moment with the barycenter's.
  double mean = 0.0;
  for (size_t q = 0; q < counts.size(); ++q) mean += counts[q] * channel.grid.point(q);
  EXPECT_NEAR(mean, channel.barycenter.Mean(), 0.08);
}

}  // namespace
}  // namespace otfair::core
