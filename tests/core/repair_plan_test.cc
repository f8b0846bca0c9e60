#include "core/repair_plan.h"

#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/designer.h"
#include "core/repairer.h"
#include "ot/plan.h"
#include "sim/gaussian_mixture.h"

namespace otfair::core {
namespace {

RepairPlanSet DesignedPlans(uint64_t seed, size_t n_q = 25) {
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(400, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok());
  DesignOptions options;
  options.n_q = n_q;
  auto plans = DesignDistributionalRepair(*research, options);
  EXPECT_TRUE(plans.ok());
  return *plans;
}

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

TEST(RepairPlanTest, DesignedPlanValidates) {
  RepairPlanSet plans = DesignedPlans(1);
  EXPECT_TRUE(plans.Validate().ok());
}

TEST(RepairPlanTest, ValidateCatchesCorruptedRowMarginal) {
  RepairPlanSet plans = DesignedPlans(2);
  // Perturb one stored CSR value: breaks the row-sum constraint.
  plans.At(0, 0).plan[0].mutable_values()[0] += 0.1;
  EXPECT_FALSE(plans.Validate().ok());
}

TEST(RepairPlanTest, ValidateCatchesShapeMismatch) {
  RepairPlanSet plans = DesignedPlans(3);
  plans.At(1, 1).plan[1] = ot::SparsePlan::FromDense(common::Matrix(3, 3));
  auto status = plans.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("u=1"), std::string::npos);
}

TEST(RepairPlanTest, SaveLoadRoundTrip) {
  RepairPlanSet plans = DesignedPlans(4);
  const std::string path = TempPath("plans.bin");
  ASSERT_TRUE(plans.SaveToFile(path).ok());
  auto loaded = RepairPlanSet::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dim(), plans.dim());
  EXPECT_EQ(loaded->feature_names(), plans.feature_names());
  EXPECT_DOUBLE_EQ(loaded->target_t(), plans.target_t());
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < plans.dim(); ++k) {
      const ChannelPlan& a = plans.At(u, k);
      const ChannelPlan& b = loaded->At(u, k);
      EXPECT_EQ(a.grid.size(), b.grid.size());
      EXPECT_DOUBLE_EQ(a.grid.lo(), b.grid.lo());
      EXPECT_DOUBLE_EQ(a.grid.hi(), b.grid.hi());
      for (int s = 0; s <= 1; ++s) {
        EXPECT_EQ(a.plan[s].MaxAbsDiff(b.plan[s]), 0.0);
        for (size_t q = 0; q < a.grid.size(); ++q) {
          EXPECT_DOUBLE_EQ(a.marginal[s].weight_at(q), b.marginal[s].weight_at(q));
        }
      }
      for (size_t q = 0; q < a.grid.size(); ++q)
        EXPECT_DOUBLE_EQ(a.barycenter.weight_at(q), b.barycenter.weight_at(q));
    }
  }
}

TEST(RepairPlanTest, LoadedPlanDrivesIdenticalRepairs) {
  RepairPlanSet plans = DesignedPlans(5);
  const std::string path = TempPath("plans_repair.bin");
  ASSERT_TRUE(plans.SaveToFile(path).ok());
  auto loaded = RepairPlanSet::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());

  RepairOptions options;
  options.seed = 42;
  auto ra = OffSampleRepairer::Create(plans, options);
  auto rb = OffSampleRepairer::Create(*loaded, options);
  ASSERT_TRUE(ra.ok() && rb.ok());
  common::Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Normal(0.0, 1.0);
    const int u = rng.Bernoulli(0.5) ? 1 : 0;
    const int s = rng.Bernoulli(0.5) ? 1 : 0;
    EXPECT_DOUBLE_EQ(ra->RepairValue(u, s, 0, x), rb->RepairValue(u, s, 0, x));
  }
}

TEST(RepairPlanTest, LegacyDenseV1FileLoadsAndMatches) {
  // Writes the pre-CSR version-1 format (dense n_Q x n_Q plan matrices)
  // by hand and loads it: the deployed-artifact back-compat promise.
  RepairPlanSet plans = DesignedPlans(8);
  const std::string path = TempPath("plans_v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    auto u32 = [&](uint32_t v) { out.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
    auto u64 = [&](uint64_t v) { out.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
    auto f64 = [&](double v) { out.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
    auto doubles = [&](const std::vector<double>& v) {
      out.write(reinterpret_cast<const char*>(v.data()),
                static_cast<std::streamsize>(v.size() * sizeof(double)));
    };
    auto measure = [&](const ot::DiscreteMeasure& m) {
      u64(m.size());
      doubles(m.support());
      doubles(m.weights());
    };
    u32(0x4F544652);  // "OTFR"
    u32(1);           // the legacy dense version
    u64(plans.dim());
    f64(plans.target_t());
    for (const std::string& name : plans.feature_names()) {
      u64(name.size());
      out.write(name.data(), static_cast<std::streamsize>(name.size()));
    }
    for (int u = 0; u <= 1; ++u) {
      for (size_t k = 0; k < plans.dim(); ++k) {
        const ChannelPlan& channel = plans.At(u, k);
        u64(channel.grid.size());
        f64(channel.grid.lo());
        f64(channel.grid.hi());
        for (int s = 0; s <= 1; ++s) measure(channel.marginal[static_cast<size_t>(s)]);
        measure(channel.barycenter);
        for (int s = 0; s <= 1; ++s) {
          const common::Matrix dense = channel.plan[static_cast<size_t>(s)].ToDense();
          out.write(reinterpret_cast<const char*>(dense.data()),
                    static_cast<std::streamsize>(dense.size() * sizeof(double)));
        }
      }
    }
  }
  auto loaded = RepairPlanSet::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->dim(), plans.dim());
  for (int u = 0; u <= 1; ++u) {
    for (size_t k = 0; k < plans.dim(); ++k) {
      for (int s = 0; s <= 1; ++s) {
        const auto& original = plans.At(u, k).plan[static_cast<size_t>(s)];
        const auto& roundtripped = loaded->At(u, k).plan[static_cast<size_t>(s)];
        EXPECT_EQ(original.nnz(), roundtripped.nnz()) << "u=" << u << " k=" << k;
        EXPECT_EQ(original.MaxAbsDiff(roundtripped), 0.0) << "u=" << u << " k=" << k;
      }
    }
  }
}

TEST(RepairPlanTest, LoadRejectsGarbageFile) {
  const std::string path = TempPath("garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a plan file at all";
  }
  auto loaded = RepairPlanSet::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

TEST(RepairPlanTest, LoadRejectsTruncatedFile) {
  RepairPlanSet plans = DesignedPlans(7);
  const std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(plans.SaveToFile(path).ok());
  // Truncate to half.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::string content(static_cast<size_t>(size) / 2, '\0');
  in.read(content.data(), static_cast<std::streamsize>(content.size()));
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  EXPECT_FALSE(RepairPlanSet::LoadFromFile(path).ok());
}

TEST(RepairPlanTest, LoadMissingFileGivesIoError) {
  auto loaded = RepairPlanSet::LoadFromFile(TempPath("nope.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

TEST(RepairPlanTest, ParseRejectsTrailingBytesAfterValidPayload) {
  // An oversized file — a valid plan plus junk — must not load: the
  // trailing bytes mean the file is not what the writer produced
  // (e.g. two concatenated plans, or a torn overwrite).
  RepairPlanSet plans = DesignedPlans(8);
  std::string bytes = plans.SerializeToString();
  ASSERT_TRUE(
      RepairPlanSet::ParseFromBuffer(bytes.data(), bytes.size(), "pristine").ok());
  bytes += "junk";
  auto loaded = RepairPlanSet::ParseFromBuffer(bytes.data(), bytes.size(), "oversized");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing"), std::string::npos);
}

TEST(RepairPlanTest, ParseRejectsEveryTruncatedPrefix) {
  RepairPlanSet plans = DesignedPlans(9, /*n_q=*/10);
  const std::string bytes = plans.SerializeToString();
  for (size_t len = 0; len < bytes.size(); len = len < 64 ? len + 1 : len + 131) {
    auto loaded = RepairPlanSet::ParseFromBuffer(bytes.data(), len, "trunc");
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes parsed as a plan";
  }
}

TEST(RepairPlanTest, ParseRejectsInflatedLengthFieldWithoutHugeAllocation) {
  // Blow up the first feature-name length field (offset 48 in a binary
  // |S|=2 v3 file: magic, version, dim, target_t, u_levels, s_levels, two
  // lambdas). The parser must bounds-check against the remaining bytes
  // BEFORE allocating — under ASan an attempted 2^60-byte string would
  // abort the test.
  RepairPlanSet plans = DesignedPlans(10);
  std::string bytes = plans.SerializeToString();
  const uint64_t huge = 1ULL << 60;
  ASSERT_GE(bytes.size(), 56u);
  std::memcpy(bytes.data() + 48, &huge, sizeof(huge));
  EXPECT_FALSE(RepairPlanSet::ParseFromBuffer(bytes.data(), bytes.size(), "huge").ok());
}

TEST(RepairPlanTest, SerializeParseRoundTripIsBitIdentical) {
  RepairPlanSet plans = DesignedPlans(11);
  const std::string bytes = plans.SerializeToString();
  auto parsed = RepairPlanSet::ParseFromBuffer(bytes.data(), bytes.size(), "roundtrip");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->SerializeToString(), bytes);
}

TEST(RepairPlanTest, SerializedSizeIsExact) {
  // Binary plan set, and a K = 4, M = 3 one with custom lambdas.
  const RepairPlanSet binary = DesignedPlans(12);
  EXPECT_EQ(binary.SerializeToString().size(), binary.SerializedSize());

  common::Rng rng(13);
  auto research = sim::SimulateMultiGroupGaussian(
      1200, sim::MultiGroupSimConfig::Default(/*s_levels=*/4, /*u_levels=*/3), rng);
  ASSERT_TRUE(research.ok()) << research.status().ToString();
  DesignOptions options;
  options.n_q = 20;
  options.lambdas = {0.1, 0.2, 0.3, 0.4};
  auto multi = DesignDistributionalRepair(*research, options);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi->s_levels(), 4u);
  ASSERT_EQ(multi->u_levels(), 3u);
  EXPECT_EQ(multi->SerializeToString().size(), multi->SerializedSize());
}

TEST(RepairPlanTest, SaveEmptyPlanFails) {
  RepairPlanSet empty;
  EXPECT_FALSE(empty.SaveToFile(TempPath("empty.bin")).ok());
}

}  // namespace
}  // namespace otfair::core
