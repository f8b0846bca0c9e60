// Parameterized property suite over the full repair pipeline: for every
// combination of support resolution, plan solver, transport mode and
// repair strength, the designed plans and repaired data must satisfy the
// method's structural invariants.

#include <cmath>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "ot/solver.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

struct ParamType {
  size_t n_q;
  const char* solver;  // registry name
  TransportMode mode;
  double strength;
  uint64_t seed;
};

// Prints the solver by name, not by address: the printed value becomes
// part of each discovered ctest name, which must be the same on every run.
void PrintTo(const ParamType& p, std::ostream* os) {
  *os << "(" << p.n_q << ", " << p.solver << ", "
      << (p.mode == TransportMode::kConditionalMean ? "mean" : "stochastic")
      << ", " << p.strength << ", " << p.seed << ")";
}

class RepairPropertyTest : public ::testing::TestWithParam<ParamType> {
 protected:
  void SetUp() override {
    const auto [n_q, solver, mode, strength, seed] = GetParam();
    common::Rng rng(seed);
    const auto config = sim::GaussianSimConfig::PaperDefault();
    auto research = sim::SimulateGaussianMixture(600, config, rng);
    auto archive = sim::SimulateGaussianMixture(2500, config, rng);
    ASSERT_TRUE(research.ok() && archive.ok());
    research_ = std::move(*research);
    archive_ = std::move(*archive);

    DesignOptions design;
    design.n_q = n_q;
    ot::SolverOptions solver_options;
    solver_options.sinkhorn.epsilon = 0.1;
    auto backend = ot::MakeSolver(solver, solver_options);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    design.solver = std::move(*backend);
    auto plans = DesignDistributionalRepair(research_, design);
    ASSERT_TRUE(plans.ok()) << plans.status().ToString();
    plans_ = std::move(*plans);

    RepairOptions repair;
    repair.mode = mode;
    repair.strength = strength;
    repair.seed = seed + 17;
    auto repairer = OffSampleRepairer::Create(plans_, repair);
    ASSERT_TRUE(repairer.ok()) << repairer.status().ToString();
    auto repaired = repairer->RepairDataset(archive_);
    ASSERT_TRUE(repaired.ok());
    repaired_ = std::move(*repaired);
  }

  data::Dataset research_;
  data::Dataset archive_;
  RepairPlanSet plans_;
  data::Dataset repaired_;
};

TEST_P(RepairPropertyTest, PlansSatisfyMarginalConstraints) {
  const std::string solver = GetParam().solver;
  // Sinkhorn plans meet the constraints approximately; exact solvers
  // tightly.
  const double tolerance = solver == "sinkhorn" ? 1e-4 : 1e-8;
  EXPECT_TRUE(plans_.Validate(tolerance).ok());
}

TEST_P(RepairPropertyTest, CardinalityAndLabelsPreserved) {
  EXPECT_EQ(repaired_.size(), archive_.size());
  EXPECT_EQ(repaired_.dim(), archive_.dim());
  for (size_t i = 0; i < archive_.size(); ++i) {
    EXPECT_EQ(repaired_.s(i), archive_.s(i));
    EXPECT_EQ(repaired_.u(i), archive_.u(i));
  }
}

TEST_P(RepairPropertyTest, RepairedValuesFiniteAndBounded) {
  const auto strength = GetParam().strength;
  for (size_t i = 0; i < repaired_.size(); ++i) {
    for (size_t k = 0; k < repaired_.dim(); ++k) {
      const double value = repaired_.feature(i, k);
      EXPECT_TRUE(std::isfinite(value));
      // Full-strength repairs land inside the plan grid; partial repairs
      // are convex combinations with the (possibly wider) input.
      const auto& grid = plans_.At(archive_.u(i), k).grid;
      const double lo =
          std::min(grid.lo(), archive_.feature(i, k)) - 1e-9;
      const double hi =
          std::max(grid.hi(), archive_.feature(i, k)) + 1e-9;
      EXPECT_GE(value, lo);
      EXPECT_LE(value, hi);
      if (strength == 0.0) {
        EXPECT_DOUBLE_EQ(value, archive_.feature(i, k));
      }
    }
  }
}

TEST_P(RepairPropertyTest, DependenceNeverIncreasesMaterially) {
  const auto strength = GetParam().strength;
  auto before = fairness::AggregateE(archive_);
  auto after = fairness::AggregateE(repaired_);
  ASSERT_TRUE(before.ok() && after.ok());
  if (strength == 0.0) {
    EXPECT_NEAR(*after, *before, 1e-9);
  } else if (strength == 1.0) {
    EXPECT_LT(*after, *before / 2.0);
  } else {
    EXPECT_LT(*after, (*before) * 1.05);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RepairPropertyTest,
    ::testing::Values(
        // n_q sweep, default solver/mode, full strength.
        ParamType{10, "monotone", TransportMode::kStochastic, 1.0, 1},
        ParamType{25, "monotone", TransportMode::kStochastic, 1.0, 2},
        ParamType{50, "monotone", TransportMode::kStochastic, 1.0, 3},
        ParamType{100, "monotone", TransportMode::kStochastic, 1.0, 4},
        // Solver sweep.
        ParamType{30, "exact", TransportMode::kStochastic, 1.0, 5},
        ParamType{30, "sinkhorn", TransportMode::kStochastic, 1.0, 6},
        // Mode sweep.
        ParamType{50, "monotone", TransportMode::kConditionalMean, 1.0, 7},
        ParamType{30, "exact", TransportMode::kConditionalMean, 1.0, 8},
        // Strength sweep.
        ParamType{50, "monotone", TransportMode::kStochastic, 0.0, 9},
        ParamType{50, "monotone", TransportMode::kStochastic, 0.5, 10},
        ParamType{50, "monotone", TransportMode::kConditionalMean, 0.5, 11}));

// Target-t sweep: the repaired archive must approach mu_{t-target}'s mean
// per stratum, for any t.
class TargetSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(TargetSweepTest, RepairedMeanTracksGeodesicTarget) {
  const double t = GetParam();
  common::Rng rng(100 + static_cast<uint64_t>(t * 100));
  const auto config = sim::GaussianSimConfig::PaperDefault();
  auto research = sim::SimulateGaussianMixture(3000, config, rng);
  auto archive = sim::SimulateGaussianMixture(6000, config, rng);
  ASSERT_TRUE(research.ok() && archive.ok());
  DesignOptions design;
  design.target_t = t;
  auto plans = DesignDistributionalRepair(*research, design);
  ASSERT_TRUE(plans.ok());
  RepairOptions repair;
  repair.seed = 5;
  auto repairer = OffSampleRepairer::Create(*plans, repair);
  ASSERT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(*archive);
  ASSERT_TRUE(repaired.ok());

  for (int u = 0; u <= 1; ++u) {
    // Expected target mean: (1 - t) mu_{u,0} + t mu_{u,1} (translation
    // family: geodesic interpolates means linearly).
    const double expected =
        (1.0 - t) * config.mean[u][0][0] + t * config.mean[u][1][0];
    const auto idx = repaired->UIndices(u);
    double acc = 0.0;
    for (size_t i : idx) acc += repaired->feature(i, 0);
    const double mean = acc / static_cast<double>(idx.size());
    EXPECT_NEAR(mean, expected, 0.15) << "u=" << u << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(TSweep, TargetSweepTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace otfair::core
