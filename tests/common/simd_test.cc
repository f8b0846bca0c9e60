#include "common/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace otfair::common::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The widest compiled lane count is 4 (AVX2 doubles); the issue's parity
// sweep asks for every unaligned length up to 4*lanes + 3, and the unrolled
// reduction kernels consume 16 at a time, so sweep well past that too.
constexpr size_t kMaxLen = 4 * 4 + 3;
constexpr size_t kUnrollLen = 67;  // > 4 * 16, hits the unrolled main loops

std::vector<double> RandomVec(Rng& rng, size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (auto& x : v) x = lo + (hi - lo) * rng.Uniform();
  return v;
}

// Reductions re-associate across lanes, so parity with the scalar table is
// checked to a tight relative tolerance, not bit equality.
void ExpectClose(double expected, double actual) {
  if (std::isinf(expected)) {
    EXPECT_EQ(expected, actual);
    return;
  }
  const double scale = std::max(1.0, std::abs(expected));
  EXPECT_NEAR(expected, actual, 1e-12 * scale);
}

class SimdParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SimdParityTest, SumDotMatchScalar) {
  const size_t n = GetParam();
  Rng rng(1234 + n);
  const auto x = RandomVec(rng, n, -3.0, 3.0);
  const auto y = RandomVec(rng, n, -2.0, 5.0);
  const Ops& best = BestOps();
  ExpectClose(ScalarOps().sum(x.data(), n), best.sum(x.data(), n));
  ExpectClose(ScalarOps().dot(x.data(), y.data(), n),
              best.dot(x.data(), y.data(), n));
}

TEST_P(SimdParityTest, MaxKernelsBitExact) {
  const size_t n = GetParam();
  Rng rng(99 + n);
  const auto x = RandomVec(rng, n, -10.0, 10.0);
  const auto y = RandomVec(rng, n, -10.0, 10.0);
  const Ops& best = BestOps();
  // Max and MaxAbsDiff only compare/subtract element-wise: bit-exact.
  EXPECT_EQ(ScalarOps().max(x.data(), n), best.max(x.data(), n));
  EXPECT_EQ(ScalarOps().max_abs_diff(x.data(), y.data(), n),
            best.max_abs_diff(x.data(), y.data(), n));
}

TEST_P(SimdParityTest, ElementwiseKernelsBitExact) {
  const size_t n = GetParam();
  Rng rng(7 + n);
  const auto x = RandomVec(rng, n, -4.0, 4.0);
  const auto y = RandomVec(rng, n, -4.0, 4.0);
  auto dst_scalar = RandomVec(rng, n, 0.0, 1.0);
  auto dst_vector = dst_scalar;
  const Ops& best = BestOps();

  ScalarOps().add_in_place(dst_scalar.data(), x.data(), n);
  best.add_in_place(dst_vector.data(), x.data(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(dst_scalar[i], dst_vector[i]);

  ScalarOps().scaled_mul(dst_scalar.data(), x.data(), y.data(), 0.37, n);
  best.scaled_mul(dst_vector.data(), x.data(), y.data(), 0.37, n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(dst_scalar[i], dst_vector[i]);
}

TEST_P(SimdParityTest, LseDiffMatchesScalar) {
  const size_t n = GetParam();
  Rng rng(4242 + n);
  // Sinkhorn feeds log-potential minus scaled-cost differences that span a
  // wide dynamic range; exercise both moderate and extreme spreads.
  const auto x = RandomVec(rng, n, -50.0, 50.0);
  const auto y = RandomVec(rng, n, -30.0, 30.0);
  const Ops& best = BestOps();
  const double expected = ScalarOps().lse_diff(x.data(), y.data(), n);
  const double actual = best.lse_diff(x.data(), y.data(), n);
  ExpectClose(expected, actual);
}

TEST_P(SimdParityTest, LseDiffHandlesNegInfTerms) {
  const size_t n = GetParam();
  Rng rng(5 + n);
  auto x = RandomVec(rng, n, -5.0, 5.0);
  const auto y = RandomVec(rng, n, -5.0, 5.0);
  // Zero-mass atoms enter the log-domain solver as -inf log-weights.
  for (size_t i = 0; i < n; i += 2) x[i] = -kInf;
  const Ops& best = BestOps();
  const double expected = ScalarOps().lse_diff(x.data(), y.data(), n);
  const double actual = best.lse_diff(x.data(), y.data(), n);
  ExpectClose(expected, actual);

  // All terms -inf: the LSE is -inf in both paths.
  std::vector<double> all_ninf(n, -kInf);
  EXPECT_EQ(-kInf, ScalarOps().lse_diff(all_ninf.data(), y.data(), n));
  EXPECT_EQ(-kInf, best.lse_diff(all_ninf.data(), y.data(), n));
}

INSTANTIATE_TEST_SUITE_P(UnalignedLengths, SimdParityTest,
                         ::testing::Range<size_t>(1, kMaxLen + 1));
INSTANTIATE_TEST_SUITE_P(UnrolledLengths, SimdParityTest,
                         ::testing::Values<size_t>(kUnrollLen, kUnrollLen + 1,
                                                   kUnrollLen + 2, 256));

TEST(SimdTest, KdeWalksBitIdenticalToScalar) {
  // A sample's left and right walks at every pairing of lengths 0-9 (each
  // tail of the four-lane loop, and either walk outlasting the other) and
  // 510-512 (walks across a 512-point grid). The left walk covers the
  // cells just below the right walk's, as in PmfOnGrid. g = 0.2 drives a
  // chain through subnormals to zero within 512 steps. The guard cells
  // around both walks must stay as they were.
  constexpr size_t kGuard = 4;
  std::vector<size_t> counts;
  for (size_t n = 0; n <= 9; ++n) counts.push_back(n);
  for (size_t n = 510; n <= 512; ++n) counts.push_back(n);
  Rng rng(77);
  const auto G = RandomVec(rng, 512, 0.0, 1.0);
  for (size_t right_count : counts) {
    for (size_t left_count : counts) {
      const double slow = 0.9 + 0.1 * rng.Uniform();
      const double e_right = rng.Uniform();
      const double e_left = rng.Uniform();
      const double g_right = right_count % 2 == 0 ? 0.2 : slow;
      const double g_left = left_count % 2 == 0 ? slow : 0.2;
      const size_t n = left_count + right_count + 2 * kGuard;
      const size_t bracket = kGuard + left_count;  // the right walk's first cell
      const auto before = RandomVec(rng, n, 0.0, 1e-3);
      auto scalar = before;
      auto vector = before;
      ScalarOps().kde_walks({e_right, g_right, right_count, scalar.data() + bracket},
                            {e_left, g_left, left_count, scalar.data() + bracket - 1},
                            G.data());
      BestOps().kde_walks({e_right, g_right, right_count, vector.data() + bracket},
                          {e_left, g_left, left_count, vector.data() + bracket - 1}, G.data());
      SCOPED_TRACE("right " + std::to_string(right_count) + " left " +
                   std::to_string(left_count));
      EXPECT_EQ(0, std::memcmp(scalar.data(), vector.data(), n * sizeof(double)));
      for (size_t i = 0; i < kGuard; ++i) {
        EXPECT_EQ(vector[i], before[i]);
        EXPECT_EQ(vector[n - 1 - i], before[n - 1 - i]);
      }
    }
  }
}

TEST(SimdTest, EmptyInputs) {
  const Ops& best = BestOps();
  EXPECT_EQ(0.0, best.sum(nullptr, 0));
  EXPECT_EQ(0.0, best.dot(nullptr, nullptr, 0));
  EXPECT_EQ(-kInf, best.max(nullptr, 0));
  EXPECT_EQ(0.0, best.max_abs_diff(nullptr, nullptr, 0));
  EXPECT_EQ(-kInf, best.lse_diff(nullptr, nullptr, 0));
}

TEST(SimdTest, VectorExpAccuracyAcrossRange) {
  // LseDiff with y = 0 and a single dominant term isolates the vector exp:
  // lse([v, hi]) = hi + log(exp(v - hi) + 1). Instead probe exp directly
  // through a 4-lane lse where three lanes are -inf.
  const Ops& best = BestOps();
  for (double v = -700.0; v <= 0.0; v += 0.37) {
    const double x[4] = {v, -kInf, -kInf, 0.0};
    const double y[4] = {0.0, 0.0, 0.0, 0.0};
    const double expected = std::log(std::exp(v) + 1.0);
    const double actual = best.lse_diff(x, y, 4);
    EXPECT_NEAR(expected, actual, 1e-14 * std::max(1.0, std::abs(expected)))
        << "v=" << v;
  }
}

TEST(SimdTest, ForceScalarSwitchesActiveTable) {
  const bool was_forced = ForcedScalar();
  SetForceScalar(true);
  EXPECT_TRUE(ForcedScalar());
  EXPECT_STREQ("scalar", ActiveIsa());
  EXPECT_EQ(&Active(), &ScalarOps());
  SetForceScalar(false);
  EXPECT_FALSE(ForcedScalar());
  EXPECT_EQ(&Active(), &BestOps());
  SetForceScalar(was_forced);
}

TEST(SimdTest, IsaTagIsKnown) {
  const std::string isa = BestOps().isa;
  EXPECT_TRUE(isa == "scalar" || isa == "avx2" || isa == "neon") << isa;
}

}  // namespace
}  // namespace otfair::common::simd
