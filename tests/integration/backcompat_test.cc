// Binary-era backward-compatibility property suite.
//
// The multi-group refactor promises that the |S| = |U| = 2 path is
// BIT-IDENTICAL to the pre-refactor binary pipeline. These tests enforce
// that against golden fixtures committed from the last binary-only build
// (tests/data/golden/, generated by the PR-4-era `otfair` CLI):
//
//   golden_research.csv   `otfair simulate --rows=400 --seed=1`
//   golden_archive.csv    `otfair simulate --rows=600 --seed=2`
//   golden_plan_v2.bin    `otfair design --n_q=32` on the research CSV
//                         (binary-era v2 CSR plan format)
//   golden_repaired.csv   `otfair repair` of the archive under that plan
//                         (stochastic mode, default seed)
//   golden_serve.txt      protocol responses for session 7 repairing the
//                         first 100 archive rows
//   golden_plan_v4.bin    `otfair design --n_q=32` on the research CSV,
//                         written by the uniform-grid KDE kernel (v4
//                         checksummed format)
//
// Batch repair and serve replay under golden_plan_v2.bin must reproduce
// the binary-era output to the last bit, and v2 plan files must keep
// loading through the v3 loader. A fresh design must equal
// golden_plan_v4.bin byte for byte. Against the binary-era plan, which
// the exact KDE produced, a fresh design agrees within the KDE kernel's
// stated error bound (stats/kde.h): grids and plan sparsity exactly,
// measure weights within the bound, plan values within 1e-12.
// (The v1 dense-format loader is covered in repair_plan_test.cc.)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "core/designer.h"
#include "core/repair_plan.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "serve/repair_service.h"
#include "stats/bandwidth.h"

#ifndef OTFAIR_GOLDEN_DIR
#define OTFAIR_GOLDEN_DIR "tests/data/golden"
#endif

namespace otfair {
namespace {

std::string Golden(const std::string& name) {
  return std::string(OTFAIR_GOLDEN_DIR) + "/" + name;
}

data::Dataset LoadGoldenCsv(const std::string& name) {
  auto dataset = data::ReadCsv(Golden(name));
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return *dataset;
}

/// The design invocation behind golden_plan_v2.bin (`otfair design
/// --n_q=32`, all other options at their defaults).
core::RepairPlanSet DesignGoldenPlans() {
  core::DesignOptions options;
  options.n_q = 32;
  auto plans = core::DesignDistributionalRepair(LoadGoldenCsv("golden_research.csv"), options);
  EXPECT_TRUE(plans.ok()) << plans.status().ToString();
  return *plans;
}

TEST(BackcompatTest, GoldenV2PlanLoadsThroughV3Loader) {
  auto plans = core::RepairPlanSet::LoadFromFile(Golden("golden_plan_v2.bin"));
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  EXPECT_EQ(plans->dim(), 2u);
  EXPECT_EQ(plans->s_levels(), 2u);
  EXPECT_EQ(plans->u_levels(), 2u);
  EXPECT_DOUBLE_EQ(plans->target_t(), 0.5);
  ASSERT_EQ(plans->lambdas().size(), 2u);
  EXPECT_DOUBLE_EQ(plans->lambdas()[0], 0.5);
  EXPECT_DOUBLE_EQ(plans->lambdas()[1], 0.5);
  EXPECT_TRUE(plans->Validate(1e-5).ok());
}

TEST(BackcompatTest, DesignBitIdenticalToV4Golden) {
  // The plan bytes of a fresh design are pinned exactly, on every build.
  auto golden = common::ReadFileToString(Golden("golden_plan_v4.bin"));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_TRUE(DesignGoldenPlans().SerializeToString() == *golden);
}

TEST(BackcompatTest, DesignWithinKdeBoundOfBinaryEra) {
  // The binary-era plan came from the exact KDE; a fresh design differs
  // from it only by the KDE kernel's error and what the barycenter and
  // solve make of it.
  auto golden = core::RepairPlanSet::LoadFromFile(Golden("golden_plan_v2.bin"));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const data::Dataset research = LoadGoldenCsv("golden_research.csv");
  core::RepairPlanSet designed = DesignGoldenPlans();
  ASSERT_EQ(designed.dim(), golden->dim());
  ASSERT_EQ(designed.s_levels(), golden->s_levels());
  ASSERT_EQ(designed.u_levels(), golden->u_levels());
  auto expect_within = [](const ot::DiscreteMeasure& a, const ot::DiscreteMeasure& b,
                          double bound, const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t q = 0; q < a.size(); ++q) {
      EXPECT_EQ(a.support()[q], b.support()[q]) << label << " q=" << q;
      EXPECT_LE(std::fabs(a.weight_at(q) - b.weight_at(q)), bound * b.weight_at(q))
          << label << " q=" << q;
    }
  };
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < designed.dim(); ++k) {
      const core::ChannelPlan& a = designed.At(u, k);
      const core::ChannelPlan& b = golden->At(u, k);
      const std::string channel = "u=" + std::to_string(u) + " k=" + std::to_string(k);
      ASSERT_EQ(a.grid.size(), b.grid.size());
      EXPECT_EQ(a.grid.lo(), b.grid.lo());
      EXPECT_EQ(a.grid.hi(), b.grid.hi());
      const double magnitude = std::max(std::fabs(a.grid.lo()), std::fabs(a.grid.hi()));
      double h_min = std::numeric_limits<double>::infinity();
      for (size_t s = 0; s < 2; ++s) {
        // The kernel bound of stats/kde.h with this group's bandwidth.
        const double h = stats::SilvermanBandwidth(research.FeatureColumn(
            k, research.GroupIndices({u, static_cast<int>(s)})));
        h_min = std::min(h_min, h);
        expect_within(a.marginal[s], b.marginal[s], 1e-12 + 128.0 * 0x1p-52 * magnitude / h,
                      channel + " s=" + std::to_string(s));
        const ot::SparsePlan& pa = a.plan[s];
        const ot::SparsePlan& pb = b.plan[s];
        ASSERT_EQ(pa.nnz(), pb.nnz()) << channel;
        EXPECT_EQ(pa.row_offsets(), pb.row_offsets()) << channel;
        EXPECT_EQ(pa.col_indices(), pb.col_indices()) << channel;
        EXPECT_LE(pa.MaxAbsDiff(pb), 1e-12) << channel;
      }
      // The barycenter mixes both marginals' quantiles: the looser of
      // their two bounds.
      expect_within(a.barycenter, b.barycenter, 1e-12 + 128.0 * 0x1p-52 * magnitude / h_min,
                    channel + " barycenter");
    }
  }
}

TEST(BackcompatTest, BatchRepairBitIdenticalToBinaryEra) {
  // `otfair repair` defaults: stochastic mode, seed 0x07fa12, strength 1,
  // under the committed binary-era plan.
  data::Dataset archive = LoadGoldenCsv("golden_archive.csv");
  data::Dataset golden = LoadGoldenCsv("golden_repaired.csv");
  auto plans = core::RepairPlanSet::LoadFromFile(Golden("golden_plan_v2.bin"));
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  auto repairer = core::OffSampleRepairer::Create(std::move(*plans), {});
  ASSERT_TRUE(repairer.ok()) << repairer.status().ToString();
  auto repaired = repairer->RepairDataset(archive);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ASSERT_EQ(repaired->size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    for (size_t k = 0; k < golden.dim(); ++k)
      EXPECT_EQ(repaired->feature(i, k), golden.feature(i, k)) << "row " << i << " k " << k;
  }
}

TEST(BackcompatTest, ServeBitIdenticalToBinaryEra) {
  // golden_serve.txt holds "ok 7 <row> <y1> <y2>" lines (printed %.17g,
  // so parsing recovers the exact doubles) for session 7 over the first
  // 100 archive rows. RepairService must reproduce them bit-for-bit.
  auto plans = core::RepairPlanSet::LoadFromFile(Golden("golden_plan_v2.bin"));
  ASSERT_TRUE(plans.ok());
  auto service = serve::RepairService::Create(std::move(*plans), {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  data::Dataset archive = LoadGoldenCsv("golden_archive.csv");

  std::FILE* f = std::fopen(Golden("golden_serve.txt").c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[512];
  size_t lines = 0;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    unsigned long long session = 0;
    unsigned long long row = 0;
    double y1 = 0.0;
    double y2 = 0.0;
    ASSERT_EQ(std::sscanf(buf, "ok %llu %llu %lf %lf", &session, &row, &y1, &y2), 4);
    serve::RowRequest request;
    request.session_id = session;
    request.row_index = row;
    request.u = archive.u(row);
    request.s = archive.s(row);
    request.features = archive.Row(row);
    serve::RowResponse response;
    ASSERT_TRUE((*service)->RepairRow(request, &response).ok());
    ASSERT_EQ(response.repaired.size(), 2u);
    EXPECT_EQ(response.repaired[0], y1) << "row " << row;
    EXPECT_EQ(response.repaired[1], y2) << "row " << row;
    ++lines;
  }
  std::fclose(f);
  EXPECT_EQ(lines, 100u);
}

TEST(BackcompatTest, V2PlanRoundTripsThroughV3Save) {
  // v2 file -> v3 save -> load: the artifact upgrade path preserves every
  // value exactly.
  auto golden = core::RepairPlanSet::LoadFromFile(Golden("golden_plan_v2.bin"));
  ASSERT_TRUE(golden.ok());
  const std::string path = ::testing::TempDir() + "/upgraded_v3.bin";
  ASSERT_TRUE(golden->SaveToFile(path).ok());
  auto reloaded = core::RepairPlanSet::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->s_levels(), 2u);
  EXPECT_EQ(reloaded->u_levels(), 2u);
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < golden->dim(); ++k) {
      for (size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(golden->At(u, k).plan[s].MaxAbsDiff(reloaded->At(u, k).plan[s]), 0.0);
        // Two load-time renormalizations in this chain (v2 load, v3
        // load), so the measures agree to a few ulp rather than 4.
        for (size_t q = 0; q < golden->At(u, k).grid.size(); ++q) {
          const double a = golden->At(u, k).marginal[s].weight_at(q);
          const double b = reloaded->At(u, k).marginal[s].weight_at(q);
          EXPECT_NEAR(a, b, 1e-13 * std::max(1.0, std::fabs(a)));
        }
      }
    }
  }
}

TEST(BackcompatTest, GoldenSimulationStillLoads) {
  // The simulate path is covered bit-for-bit by regenerating in CI (the
  // CLI smoke); here we at least pin the fixture's shape and levels.
  data::Dataset research = LoadGoldenCsv("golden_research.csv");
  EXPECT_EQ(research.size(), 400u);
  EXPECT_EQ(research.dim(), 2u);
  EXPECT_EQ(research.s_levels(), 2u);
  EXPECT_EQ(research.u_levels(), 2u);
}

}  // namespace
}  // namespace otfair
