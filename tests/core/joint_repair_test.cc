#include "core/joint_repair.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/designer.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "fairness/joint_emetric.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

/// Config where the *correlation* (not the marginals) depends on s: the
/// regime where per-feature repair provably cannot finish the job.
sim::GaussianSimConfig CorrelationOnlyConfig() {
  sim::GaussianSimConfig config = sim::GaussianSimConfig::PaperDefault();
  // Same means for both s classes; dependence enters via rho below.
  config.mean[0][0] = {0.0, 0.0};
  config.mean[0][1] = {0.0, 0.0};
  config.mean[1][0] = {1.0, 1.0};
  config.mean[1][1] = {1.0, 1.0};
  return config;
}

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
};

Fixture MakeFixture(const sim::GaussianSimConfig& config, uint64_t seed,
                    size_t n_research = 2000, size_t n_archive = 6000) {
  common::Rng rng(seed);
  auto research = sim::SimulateGaussianMixture(n_research, config, rng);
  auto archive = sim::SimulateGaussianMixture(n_archive, config, rng);
  EXPECT_TRUE(research.ok() && archive.ok());
  return Fixture{std::move(*research), std::move(*archive)};
}

TEST(JointRepairTest, DesignSucceedsOnPaperConfig) {
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 1);
  JointDesignOptions options;
  options.n_q = 16;
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok());
  EXPECT_EQ(repairer->k1(), 0u);
  EXPECT_EQ(repairer->k2(), 1u);
}

TEST(JointRepairTest, RepairedPairsLieOnProductGrid) {
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 2, 1500, 100);
  JointDesignOptions options;
  options.n_q = 12;
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok());
  common::Rng rng(3);
  for (size_t i = 0; i < fx.archive.size(); ++i) {
    const auto [x, y] = repairer->RepairPair(fx.archive.u(i), fx.archive.s(i),
                                             fx.archive.feature(i, 0),
                                             fx.archive.feature(i, 1), rng);
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_TRUE(std::isfinite(y));
  }
}

TEST(JointRepairTest, QuenchesMarginalDependence) {
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 4);
  JointDesignOptions options;
  options.n_q = 20;
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive, 5);
  ASSERT_TRUE(repaired.ok());
  auto before = fairness::AggregateE(fx.archive);
  auto after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_LT(*after, *before / 3.0);
}

TEST(JointRepairTest, RemovesCorrelationDependencePerFeatureCannot) {
  // s = 0 records are positively correlated, s = 1 uncorrelated; all
  // marginals identical. Per-feature repair barely changes the data (its
  // marginals already match), so joint dependence persists; joint repair
  // removes it.
  sim::GaussianSimConfig correlated = CorrelationOnlyConfig();
  correlated.rho = 0.85;
  sim::GaussianSimConfig uncorrelated = CorrelationOnlyConfig();
  uncorrelated.rho = 0.0;

  // Build a dataset whose s=0 rows come from the correlated config and
  // s=1 rows from the uncorrelated one.
  common::Rng rng(6);
  auto d_corr = sim::SimulateGaussianMixture(8000, correlated, rng);
  auto d_unco = sim::SimulateGaussianMixture(8000, uncorrelated, rng);
  ASSERT_TRUE(d_corr.ok() && d_unco.ok());
  std::vector<size_t> take_corr;
  std::vector<size_t> take_unco;
  for (size_t i = 0; i < d_corr->size(); ++i) {
    if (d_corr->s(i) == 0) take_corr.push_back(i);
  }
  for (size_t i = 0; i < d_unco->size(); ++i) {
    if (d_unco->s(i) == 1) take_unco.push_back(i);
  }
  data::Dataset part0 = d_corr->Subset(take_corr);
  data::Dataset part1 = d_unco->Subset(take_unco);
  common::Matrix features(part0.size() + part1.size(), 2);
  std::vector<int> s;
  std::vector<int> u;
  for (size_t i = 0; i < part0.size(); ++i) {
    features(i, 0) = part0.feature(i, 0);
    features(i, 1) = part0.feature(i, 1);
    s.push_back(0);
    u.push_back(part0.u(i));
  }
  for (size_t i = 0; i < part1.size(); ++i) {
    features(part0.size() + i, 0) = part1.feature(i, 0);
    features(part0.size() + i, 1) = part1.feature(i, 1);
    s.push_back(1);
    u.push_back(part1.u(i));
  }
  auto combined = data::Dataset::Create(std::move(features), std::move(s), std::move(u),
                                        {"x1", "x2"});
  ASSERT_TRUE(combined.ok());
  common::Rng split_rng(7);
  auto split = data::SplitResearchArchive(*combined, 4000, split_rng);
  ASSERT_TRUE(split.ok());
  const data::Dataset& research = split->first;
  const data::Dataset& archive = split->second;

  // Joint dependence before repair is substantial; per-feature E is small
  // (marginals coincide by construction).
  auto joint_before = fairness::JointFeaturePairE(archive, 0, 1);
  auto marginal_before = fairness::AggregateE(archive);
  ASSERT_TRUE(joint_before.ok() && marginal_before.ok());
  EXPECT_GT(*joint_before, 3.0 * *marginal_before);

  // Per-feature repair: joint dependence largely survives.
  auto plans = DesignDistributionalRepair(research, {});
  ASSERT_TRUE(plans.ok());
  auto per_feature = OffSampleRepairer::Create(*plans, {});
  ASSERT_TRUE(per_feature.ok());
  auto repaired_pf = per_feature->RepairDataset(archive);
  ASSERT_TRUE(repaired_pf.ok());
  auto joint_after_pf = fairness::JointFeaturePairE(*repaired_pf, 0, 1);
  ASSERT_TRUE(joint_after_pf.ok());

  // Joint repair: joint dependence drops substantially below the
  // per-feature result.
  JointDesignOptions options;
  options.n_q = 20;
  auto joint = JointPairRepairer::Design(research, 0, 1, options);
  ASSERT_TRUE(joint.ok());
  auto repaired_joint = joint->RepairDataset(archive, 8);
  ASSERT_TRUE(repaired_joint.ok());
  auto joint_after_joint = fairness::JointFeaturePairE(*repaired_joint, 0, 1);
  ASSERT_TRUE(joint_after_joint.ok());

  EXPECT_LT(*joint_after_joint, 0.5 * *joint_after_pf)
      << "joint before=" << *joint_before << " per-feature after=" << *joint_after_pf
      << " joint after=" << *joint_after_joint;
}

TEST(JointRepairTest, InjectedBackendSolvesProductGridPlans) {
  // A registry backend replaces the separable-kernel path: Sinkhorn on the
  // dense 2-D cost still quenches dependence, and the 1-D-only monotone
  // backend is rejected with a clean error instead of nonsense plans.
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 11, 1500, 2000);
  JointDesignOptions options;
  options.n_q = 8;
  ot::SolverOptions solver_options;
  solver_options.sinkhorn.epsilon = 0.1;
  options.solver = *ot::MakeSolver("sinkhorn", solver_options);
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok()) << repairer.status().ToString();
  auto repaired = repairer->RepairDataset(fx.archive, 7);
  ASSERT_TRUE(repaired.ok());
  auto e_before = fairness::AggregateE(fx.archive);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  EXPECT_LT(*e_after, *e_before / 2.0);

  JointDesignOptions bad = options;
  bad.solver = *ot::MakeSolver("monotone");
  auto rejected = JointPairRepairer::Design(fx.research, 0, 1, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), common::StatusCode::kUnimplemented);
}

TEST(JointRepairTest, DeterministicGivenSeed) {
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 9, 1000, 200);
  JointDesignOptions options;
  options.n_q = 10;
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok());
  auto a = repairer->RepairDataset(fx.archive, 42);
  auto b = repairer->RepairDataset(fx.archive, 42);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_DOUBLE_EQ(a->feature(i, 0), b->feature(i, 0));
    EXPECT_DOUBLE_EQ(a->feature(i, 1), b->feature(i, 1));
  }
}

/// CRC-32 of the repaired feature matrix (row-major doubles).
uint32_t FeatureCrc(const data::Dataset& dataset) {
  const common::Matrix& features = dataset.features();
  return common::Crc32(features.data(), features.size() * sizeof(double));
}

// Pins the repaired bytes, not just their self-consistency: the plan-row
// draw (the alias arena's bucket and Bernoulli per record) and the
// fallback rows fix every output bit, so any change to table
// construction or RNG consumption moves these CRCs.
TEST(JointRepairTest, RepairedBytesPinned) {
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 12, 1000, 500);
  JointDesignOptions options;
  options.n_q = 10;
  auto entropic = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(entropic.ok()) << entropic.status().ToString();
  auto repaired = entropic->RepairDataset(fx.archive, 21);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(FeatureCrc(*repaired), 0xAE6A3025u);

  options.n_q = 5;
  options.solver = *ot::MakeSolver("exact");
  auto exact = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  repaired = exact->RepairDataset(fx.archive, 22);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(FeatureCrc(*repaired), 0x50EF1BDCu);
}

TEST(JointRepairTest, LabelsPreserved) {
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 10, 1000, 300);
  JointDesignOptions options;
  options.n_q = 10;
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive, 1);
  ASSERT_TRUE(repaired.ok());
  for (size_t i = 0; i < repaired->size(); ++i) {
    EXPECT_EQ(repaired->s(i), fx.archive.s(i));
    EXPECT_EQ(repaired->u(i), fx.archive.u(i));
  }
}

TEST(JointRepairTest, RejectsBadArguments) {
  Fixture fx = MakeFixture(sim::GaussianSimConfig::PaperDefault(), 11, 500, 100);
  EXPECT_FALSE(JointPairRepairer::Design(fx.research, 0, 0, {}).ok());
  EXPECT_FALSE(JointPairRepairer::Design(fx.research, 0, 5, {}).ok());
  JointDesignOptions bad_nq;
  bad_nq.n_q = 100;
  EXPECT_FALSE(JointPairRepairer::Design(fx.research, 0, 1, bad_nq).ok());
  JointDesignOptions bad_t;
  bad_t.target_t = -1.0;
  EXPECT_FALSE(JointPairRepairer::Design(fx.research, 0, 1, bad_t).ok());

  // A non-finite feature has no place on the product grid: RepairDataset
  // refuses it, and RepairPair CHECK-fails. The design started pool
  // threads, so the death tests re-execute rather than fork.
  JointDesignOptions options;
  options.n_q = 10;
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok());
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    data::Dataset poisoned = fx.archive.Clone();
    poisoned.set_feature(fx.archive.size() / 2, 1, bad);
    EXPECT_EQ(repairer->RepairDataset(poisoned, 1).status().code(),
              common::StatusCode::kInvalidArgument);
    common::Rng rng(5);
    EXPECT_DEATH(repairer->RepairPair(0, 0, 0.0, bad, rng), "finite");
    EXPECT_DEATH(repairer->RepairPair(0, 0, bad, 0.0, rng), "finite");
  }
}

}  // namespace
}  // namespace otfair::core
