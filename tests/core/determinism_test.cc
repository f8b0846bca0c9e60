// Parallel-vs-serial determinism suite: every parallelized pipeline stage
// must produce bit-identical output at any thread count. The contract is
// structural (per-index result slots, per-row RNG sub-streams, serial
// reductions), so these tests compare exact doubles, not tolerances.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/designer.h"
#include "core/geometric.h"
#include "core/joint_repair.h"
#include "core/pipeline.h"
#include "core/repairer.h"
#include "ot/cost.h"
#include "ot/sinkhorn.h"
#include "ot/solver.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
};

Fixture MakeFixture(uint64_t seed, size_t n_research = 600, size_t n_archive = 1500) {
  common::Rng rng(seed);
  const auto config = sim::GaussianSimConfig::PaperDefault();
  auto research = sim::SimulateGaussianMixture(n_research, config, rng);
  auto archive = sim::SimulateGaussianMixture(n_archive, config, rng);
  EXPECT_TRUE(research.ok() && archive.ok());
  return Fixture{std::move(*research), std::move(*archive)};
}

void ExpectPlansIdentical(const RepairPlanSet& a, const RepairPlanSet& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < a.dim(); ++k) {
      const ChannelPlan& ca = a.At(u, k);
      const ChannelPlan& cb = b.At(u, k);
      ASSERT_EQ(ca.grid.size(), cb.grid.size());
      for (size_t q = 0; q < ca.grid.size(); ++q)
        ASSERT_EQ(ca.grid.point(q), cb.grid.point(q)) << "u=" << u << " k=" << k;
      for (int s = 0; s <= 1; ++s) {
        ASSERT_EQ(ca.plan[s].MaxAbsDiff(cb.plan[s]), 0.0) << "u=" << u << " k=" << k;
        const auto& wa = ca.marginal[s].weights();
        const auto& wb = cb.marginal[s].weights();
        ASSERT_EQ(wa, wb) << "u=" << u << " k=" << k;
      }
      ASSERT_EQ(ca.barycenter.weights(), cb.barycenter.weights()) << "u=" << u << " k=" << k;
    }
  }
}

void ExpectDatasetsIdentical(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t k = 0; k < a.dim(); ++k)
      ASSERT_EQ(a.feature(i, k), b.feature(i, k)) << "row " << i << " k " << k;
  }
}

TEST(DeterminismTest, DesignBitIdenticalAcrossThreadCounts) {
  Fixture fx = MakeFixture(21);
  DesignOptions serial;
  serial.n_q = 40;
  serial.threads = 1;
  auto reference = DesignDistributionalRepair(fx.research, serial);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 3, 8}) {
    DesignOptions options = serial;
    options.threads = threads;
    auto plans = DesignDistributionalRepair(fx.research, options);
    ASSERT_TRUE(plans.ok()) << "threads=" << threads;
    ExpectPlansIdentical(*reference, *plans);
  }
}

// Plan bytes are a pure function of the research data: the KDE walk's
// vector and scalar kernels, and any thread count, serialize to the same
// bytes (the CRC inside them included), at |S| = 2 and |S| = 4.
TEST(DeterminismTest, DesignBitIdenticalAcrossSimdAndThreadConfigs) {
  common::Rng rng(30);
  auto multi = sim::SimulateMultiGroupGaussian(
      1200, sim::MultiGroupSimConfig::Default(/*s_levels=*/4, /*u_levels=*/3), rng);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  Fixture binary = MakeFixture(30, 600, 1);
  const bool was_forced = common::simd::ForcedScalar();
  for (const data::Dataset* research : {&binary.research, &*multi}) {
    SCOPED_TRACE("s_levels=" + std::to_string(research->s_levels()));
    auto design_bytes = [&](bool force_scalar, int threads) {
      common::simd::SetForceScalar(force_scalar);
      DesignOptions options;
      options.n_q = 64;
      options.threads = threads;
      auto plans = DesignDistributionalRepair(*research, options);
      common::simd::SetForceScalar(was_forced);
      EXPECT_TRUE(plans.ok()) << plans.status().ToString();
      return plans.ok() ? plans->SerializeToString() : std::string();
    };
    const std::string reference = design_bytes(/*force_scalar=*/true, /*threads=*/1);
    ASSERT_FALSE(reference.empty());
    for (bool force_scalar : {true, false}) {
      for (int threads : {1, 3, 8}) {
        EXPECT_TRUE(design_bytes(force_scalar, threads) == reference)
            << "scalar=" << force_scalar << " threads=" << threads;
      }
    }
  }
}

// Sinkhorn plans do not depend on the kernel table either: both tables'
// log-sum-exp kernels return the same bits, so a Sinkhorn design
// serializes to the same bytes under either table and thread count.
TEST(DeterminismTest, SinkhornDesignBitIdenticalAcrossSimdAndThreadConfigs) {
  Fixture fx = MakeFixture(32, 600, 1);
  ot::SolverOptions solver_options;
  solver_options.sinkhorn.epsilon = 0.1;
  auto solver = ot::MakeSolver("sinkhorn", solver_options);
  ASSERT_TRUE(solver.ok());
  const bool was_forced = common::simd::ForcedScalar();
  auto design_bytes = [&](bool force_scalar, int threads) {
    common::simd::SetForceScalar(force_scalar);
    DesignOptions options;
    options.n_q = 64;
    options.threads = threads;
    options.solver = *solver;
    auto plans = DesignDistributionalRepair(fx.research, options);
    common::simd::SetForceScalar(was_forced);
    EXPECT_TRUE(plans.ok()) << plans.status().ToString();
    return plans.ok() ? plans->SerializeToString() : std::string();
  };
  const std::string reference = design_bytes(/*force_scalar=*/true, /*threads=*/1);
  ASSERT_FALSE(reference.empty());
  for (bool force_scalar : {true, false}) {
    for (int threads : {1, 4}) {
      EXPECT_TRUE(design_bytes(force_scalar, threads) == reference)
          << "scalar=" << force_scalar << " threads=" << threads;
    }
  }
}

TEST(DeterminismTest, RepairDatasetBitIdenticalAcrossThreadCounts) {
  Fixture fx = MakeFixture(22);
  DesignOptions design;
  design.n_q = 40;
  auto plans = DesignDistributionalRepair(fx.research, design);
  ASSERT_TRUE(plans.ok());
  RepairOptions serial;
  serial.seed = 4242;
  serial.threads = 1;
  auto ref_repairer = OffSampleRepairer::Create(*plans, serial);
  ASSERT_TRUE(ref_repairer.ok());
  auto reference = ref_repairer->RepairDataset(fx.archive);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 3, 8}) {
    RepairOptions options = serial;
    options.threads = threads;
    auto repairer = OffSampleRepairer::Create(*plans, options);
    ASSERT_TRUE(repairer.ok()) << "threads=" << threads;
    auto repaired = repairer->RepairDataset(fx.archive);
    ASSERT_TRUE(repaired.ok()) << "threads=" << threads;
    ExpectDatasetsIdentical(*reference, *repaired);
    // The serially-reduced stats totals are schedule-independent too.
    EXPECT_EQ(repairer->stats().values_repaired, ref_repairer->stats().values_repaired);
    EXPECT_EQ(repairer->stats().values_clamped, ref_repairer->stats().values_clamped);
    EXPECT_EQ(repairer->stats().empty_row_fallbacks,
              ref_repairer->stats().empty_row_fallbacks);
  }
}

TEST(DeterminismTest, RepairDatasetSoftBitIdenticalAcrossThreadCounts) {
  Fixture fx = MakeFixture(23, 600, 800);
  DesignOptions design;
  design.n_q = 32;
  auto plans = DesignDistributionalRepair(fx.research, design);
  ASSERT_TRUE(plans.ok());
  std::vector<double> posteriors;
  common::Rng rng(7);
  for (size_t i = 0; i < fx.archive.size(); ++i) posteriors.push_back(rng.Uniform());

  auto run = [&](int threads) {
    RepairOptions options;
    options.seed = 99;
    options.threads = threads;
    auto repairer = OffSampleRepairer::Create(*plans, options);
    EXPECT_TRUE(repairer.ok());
    auto repaired = repairer->RepairDatasetSoft(fx.archive, posteriors);
    EXPECT_TRUE(repaired.ok());
    return std::move(*repaired);
  };
  const data::Dataset reference = run(1);
  for (int threads : {2, 8}) {
    const data::Dataset repaired = run(threads);
    ExpectDatasetsIdentical(reference, repaired);
  }
}

TEST(DeterminismTest, PipelineThreadsOverrideBitIdentical) {
  Fixture fx = MakeFixture(24, 500, 700);
  PipelineOptions serial;
  serial.design.n_q = 32;
  serial.design.threads = 1;
  serial.repair.threads = 1;
  auto reference = RunRepairPipeline(fx.research, fx.archive, serial);
  ASSERT_TRUE(reference.ok());
  PipelineOptions parallel = serial;
  parallel.design.threads = 4;
  parallel.repair.threads = 4;
  auto result = RunRepairPipeline(fx.research, fx.archive, parallel);
  ASSERT_TRUE(result.ok());
  ExpectDatasetsIdentical(reference->repaired_research, result->repaired_research);
  ExpectDatasetsIdentical(reference->repaired_archive, result->repaired_archive);
  ExpectPlansIdentical(reference->plans, result->plans);
}

TEST(DeterminismTest, GeometricRepairBitIdenticalAcrossThreadCounts) {
  Fixture fx = MakeFixture(25, 800, 1);
  common::parallel::SetThreadCount(1);
  auto reference = GeometricRepairDataset(fx.research, {});
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    common::parallel::SetThreadCount(threads);
    auto repaired = GeometricRepairDataset(fx.research, {});
    ASSERT_TRUE(repaired.ok()) << "threads=" << threads;
    ExpectDatasetsIdentical(*reference, *repaired);
  }
  common::parallel::SetThreadCount(0);
}

TEST(DeterminismTest, JointRepairBitIdenticalAcrossThreadCounts) {
  Fixture fx = MakeFixture(26, 900, 400);
  JointDesignOptions options;
  options.n_q = 10;
  auto repairer = JointPairRepairer::Design(fx.research, 0, 1, options);
  ASSERT_TRUE(repairer.ok());
  common::parallel::SetThreadCount(1);
  auto reference = repairer->RepairDataset(fx.archive, 77);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    common::parallel::SetThreadCount(threads);
    auto repaired = repairer->RepairDataset(fx.archive, 77);
    ASSERT_TRUE(repaired.ok()) << "threads=" << threads;
    ExpectDatasetsIdentical(*reference, *repaired);
  }
  common::parallel::SetThreadCount(0);
}

TEST(DeterminismTest, SinkhornBitIdenticalAcrossThreadCounts) {
  // Sinkhorn's row updates write per-index slots, so its plans are exact
  // matches across thread counts. n is chosen above the solver's
  // small-problem grain threshold so the pool really engages.
  const size_t n = 160;
  common::Rng rng(31);
  std::vector<double> a(n);
  std::vector<double> b(n);
  double sa = 0.0;
  double sb = 0.0;
  for (double& v : a) sa += (v = rng.Uniform(0.2, 1.0));
  for (double& v : b) sb += (v = rng.Uniform(0.2, 1.0));
  for (double& v : a) v /= sa;
  for (double& v : b) v /= sb;
  common::Matrix cost(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j)
      cost(i, j) = (static_cast<double>(i) - static_cast<double>(j)) *
                   (static_cast<double>(i) - static_cast<double>(j)) / static_cast<double>(n * n);

  ot::SinkhornOptions options;
  options.epsilon = 0.1;
  common::parallel::SetThreadCount(1);
  auto reference = ot::SolveSinkhorn(a, b, cost, options);
  ASSERT_TRUE(reference.ok());
  for (size_t threads : {size_t{2}, size_t{8}}) {
    common::parallel::SetThreadCount(threads);
    auto result = ot::SolveSinkhorn(a, b, cost, options);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result->iterations, reference->iterations) << "threads=" << threads;
    EXPECT_EQ(result->plan.coupling.MaxAbsDiff(reference->plan.coupling), 0.0)
        << "threads=" << threads;
  }
  common::parallel::SetThreadCount(0);
}

// --- Sparse/dense plan parity ------------------------------------------
//
// The CSR representation is the canonical plan type; these properties pin
// its contract against the dense route on random 1-D instances: (i) the
// sparse plan densifies to the dense plan for every backend, (ii) the
// Sinkhorn truncation refold keeps the truncated plan's marginals on the
// untruncated plan's marginals, and (iii) repair driven by a
// dense-roundtripped plan set is bit-identical to the sparse-native one.

ot::DiscreteMeasure RandomSortedMeasure(common::Rng& rng, size_t n) {
  std::vector<double> support(n);
  std::vector<double> weights(n);
  double x = rng.Uniform(-2.0, -1.0);
  for (size_t i = 0; i < n; ++i) {
    x += rng.Uniform(0.01, 0.3);
    support[i] = x;
    weights[i] = rng.Uniform(0.05, 1.0);
  }
  auto m = ot::DiscreteMeasure::Create(std::move(support), std::move(weights));
  EXPECT_TRUE(m.ok());
  return *m;
}

/// The dense coupling `solver`'s own `Solve` returns for mu -> nu under the
/// squared-Euclidean cost. The monotone backend has no dense solve; the
/// exact backend's plan is the same unique optimum.
common::Result<common::Matrix> DenseCoupling(const ot::Solver& solver,
                                             const ot::DiscreteMeasure& mu,
                                             const ot::DiscreteMeasure& nu) {
  const std::shared_ptr<const ot::Solver> exact = *ot::MakeSolver("exact");
  const ot::Solver& dense = solver.supports_general_cost() ? solver : *exact;
  auto plan = dense.Solve(mu.weights(), nu.weights(),
                          ot::SquaredEuclideanCost(mu.support(), nu.support()));
  if (!plan.ok()) return plan.status();
  return std::move(plan->coupling);
}

TEST(SparseDenseParityTest, SparsePlanDensifiesToDensePlanForAllBackends) {
  common::Rng rng(401);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 5 + static_cast<size_t>(rng.UniformInt(20));
    const size_t m = 5 + static_cast<size_t>(rng.UniformInt(20));
    const ot::DiscreteMeasure mu = RandomSortedMeasure(rng, n);
    const ot::DiscreteMeasure nu = RandomSortedMeasure(rng, m);
    for (const char* name : {"monotone", "exact", "sinkhorn"}) {
      auto solver = *ot::MakeSolver(name);
      auto sparse = solver->Solve1DSparse(mu, nu);
      auto dense = DenseCoupling(*solver, mu, nu);
      ASSERT_TRUE(sparse.ok() && dense.ok()) << name << " trial " << trial;
      ASSERT_EQ(sparse->rows(), n);
      ASSERT_EQ(sparse->cols(), m);
      // Exact backends roundtrip to machine precision; Sinkhorn's sparse
      // path additionally truncates, which moves entries by at most the
      // (mass-relative) plan_truncation refold.
      const double tolerance = std::string(name) == "sinkhorn" ? 1e-9 : 1e-13;
      EXPECT_LT(sparse->ToDense().MaxAbsDiff(*dense), tolerance)
          << name << " trial " << trial;
      EXPECT_TRUE(sparse->columns_sorted()) << name;
      EXPECT_LE(sparse->nnz(), n * m) << name;
    }
  }
}

TEST(SparseDenseParityTest, SinkhornTruncationRefoldPreservesMarginals) {
  common::Rng rng(402);
  ot::SolverOptions options;
  options.sinkhorn.epsilon = 0.02;  // narrow band: truncation really bites
  options.sinkhorn.plan_truncation = 1e-10;
  auto solver = *ot::MakeSolver("sinkhorn", options);
  for (int trial = 0; trial < 4; ++trial) {
    const size_t n = 24 + static_cast<size_t>(rng.UniformInt(16));
    const ot::DiscreteMeasure mu = RandomSortedMeasure(rng, n);
    const ot::DiscreteMeasure nu = RandomSortedMeasure(rng, n);
    auto sparse = solver->Solve1DSparse(mu, nu);
    auto dense = DenseCoupling(*solver, mu, nu);
    ASSERT_TRUE(sparse.ok() && dense.ok());
    EXPECT_LT(sparse->nnz(), n * n) << "truncation dropped nothing at eps=0.02";
    // Row marginals match the untruncated plan to roundoff (the refold
    // guarantee); column marginals to the mass-relative threshold.
    const std::vector<double> sparse_rows = sparse->RowSums();
    const std::vector<double> dense_rows = dense->RowSums();
    for (size_t i = 0; i < n; ++i)
      EXPECT_NEAR(sparse_rows[i], dense_rows[i], 1e-14) << "row " << i;
    const std::vector<double> sparse_cols = sparse->ColSums();
    const std::vector<double> dense_cols = dense->ColSums();
    for (size_t j = 0; j < n; ++j)
      EXPECT_NEAR(sparse_cols[j], dense_cols[j], 1e-9) << "col " << j;
  }
}

TEST(SparseDenseParityTest, RepairBitIdenticalUnderDenseRoundtrippedPlans) {
  Fixture fx = MakeFixture(27, 500, 1200);
  DesignOptions design;
  design.n_q = 48;
  auto plans = DesignDistributionalRepair(fx.research, design);
  ASSERT_TRUE(plans.ok());

  // Round-trip every channel plan through the dense representation; the
  // CSR rebuilt from it must drive byte-identical repairs at a fixed
  // seed (same pattern, same values, same RNG consumption).
  RepairPlanSet roundtripped = *plans;
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < roundtripped.dim(); ++k) {
      for (int s = 0; s <= 1; ++s) {
        ot::SparsePlan& pi = roundtripped.At(u, k).plan[static_cast<size_t>(s)];
        pi = ot::SparsePlan::FromDense(pi.ToDense());
        ASSERT_EQ(pi.MaxAbsDiff(plans->At(u, k).plan[static_cast<size_t>(s)]), 0.0);
      }
    }
  }

  RepairOptions options;
  options.seed = 5151;
  auto ra = OffSampleRepairer::Create(*plans, options);
  auto rb = OffSampleRepairer::Create(roundtripped, options);
  ASSERT_TRUE(ra.ok() && rb.ok());
  auto repaired_a = ra->RepairDataset(fx.archive);
  auto repaired_b = rb->RepairDataset(fx.archive);
  ASSERT_TRUE(repaired_a.ok() && repaired_b.ok());
  ExpectDatasetsIdentical(*repaired_a, *repaired_b);
}

// Repair output is a pure function of (plans, seed, dataset) across every
// execution configuration: scalar vs vector dispatch (the vector transport
// advances each row's stream exactly as common::Rng does), serial vs
// multi-threaded. Hard and soft labels, partial strength and |S| = 4 each
// agree bit-exactly in all 2x3 combinations.
TEST(DeterminismTest, RepairBitIdenticalAcrossSimdSoaAndThreadConfigs) {
  Fixture fx = MakeFixture(29, 500, 1200);
  DesignOptions design;
  design.n_q = 48;
  auto plans = DesignDistributionalRepair(fx.research, design);
  ASSERT_TRUE(plans.ok());
  common::Rng rng(31);
  std::vector<double> pr_s1(fx.archive.size());
  for (double& p : pr_s1) p = rng.Uniform();
  const auto config = sim::MultiGroupSimConfig::Default(/*s_levels=*/4, /*u_levels=*/2);
  auto research4 = sim::SimulateMultiGroupGaussian(2000, config, rng);
  auto archive4 = sim::SimulateMultiGroupGaussian(1200, config, rng);
  ASSERT_TRUE(research4.ok() && archive4.ok());
  auto plans4 = DesignDistributionalRepair(*research4, design);
  ASSERT_TRUE(plans4.ok());

  struct Case {
    const char* name;
    const RepairPlanSet& plans;
    const data::Dataset& archive;
    double strength;
    bool soft;
  };
  const Case cases[] = {
      {"binary", *plans, fx.archive, 1.0, false},
      {"binary strength 0.37", *plans, fx.archive, 0.37, false},
      {"soft strength 0.37", *plans, fx.archive, 0.37, true},
      {"|S| = 4", *plans4, *archive4, 1.0, false},
  };
  const bool was_forced = common::simd::ForcedScalar();
  auto repair_once = [&](const Case& c, bool force_scalar, int threads) {
    common::simd::SetForceScalar(force_scalar);
    RepairOptions options;
    options.seed = 6161;
    options.strength = c.strength;
    options.threads = threads;
    auto repairer = OffSampleRepairer::Create(c.plans, options);
    EXPECT_TRUE(repairer.ok());
    auto repaired = c.soft ? repairer->RepairDatasetSoft(c.archive, pr_s1)
                           : repairer->RepairDataset(c.archive);
    EXPECT_TRUE(repaired.ok());
    common::simd::SetForceScalar(was_forced);
    return std::move(*repaired);
  };

  for (const Case& c : cases) {
    const data::Dataset reference = repair_once(c, /*force_scalar=*/true, /*threads=*/1);
    for (bool force_scalar : {true, false}) {
      for (int threads : {1, 3, 8}) {
        const data::Dataset repaired = repair_once(c, force_scalar, threads);
        SCOPED_TRACE(std::string(c.name) + " scalar=" + std::to_string(force_scalar) +
                     " threads=" + std::to_string(threads));
        ExpectDatasetsIdentical(reference, repaired);
      }
    }
  }
}

}  // namespace
}  // namespace otfair::core
