#include "common/simd.h"

#include <algorithm>
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

// The name predates the removal of the dot kernel and is kept so the test
// ids stay comparable across runs.
TEST_P(SimdParityTest, SumDotMatchScalar) {
  const size_t n = GetParam();
  Rng rng(1234 + n);
  const auto x = RandomVec(rng, n, -3.0, 3.0);
  const Ops& best = BestOps();
  ExpectClose(ScalarOps().sum(x.data(), n), best.sum(x.data(), n));
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
  auto dst_scalar = RandomVec(rng, n, 0.0, 1.0);
  auto dst_vector = dst_scalar;
  const Ops& best = BestOps();

  ScalarOps().add_in_place(dst_scalar.data(), x.data(), n);
  best.add_in_place(dst_vector.data(), x.data(), n);
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

// One random repair channel laid out as core::OffSampleRepairer builds
// it: an alias arena with empty rows, single-bucket rows and slots whose
// probability is exactly 0 or 1. An empty row's fallback is the nearest
// row with mass; a row with mass points at another such row, which the
// transport must never follow.
struct Channel {
  std::vector<double> points;
  std::vector<size_t> offsets{0};
  std::vector<uint32_t> fallback;
  std::vector<AliasSlot> slots;

  TransportChannel View(double strength) const {
    return {points.data(), points.size(), offsets.data(), fallback.data(), slots.data(),
            strength};
  }
};

Channel RandomChannel(Rng& rng, size_t nq) {
  Channel c;
  for (size_t q = 0; q < nq; ++q) c.points.push_back(-3.0 + 6.0 * q / (nq - 1.0));
  std::vector<size_t> massive;
  for (size_t q = 0; q < nq; ++q) {
    const double kind = rng.Uniform();
    size_t buckets = kind < 0.2 ? 0 : kind < 0.4 ? 1 : 2 + rng.UniformInt(std::min<size_t>(nq, 9));
    if (q + 1 == nq && massive.empty()) buckets = 1;
    for (size_t b = 0; b < buckets; ++b) {
      const double p = rng.Uniform();
      const double prob = p < 0.25 ? 0.0 : p < 0.5 ? 1.0 : rng.Uniform();
      c.slots.push_back({prob, static_cast<uint32_t>(rng.UniformInt(nq)),
                         static_cast<uint32_t>(rng.UniformInt(nq))});
    }
    c.offsets.push_back(c.slots.size());
    if (buckets > 0) massive.push_back(q);
  }
  c.fallback.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    size_t best = massive[0];
    for (size_t m : massive) {
      const size_t d = m > q ? m - q : q - m;
      if (d > 0 && d < (best > q ? best - q : q - best)) best = m;
    }
    c.fallback[q] = static_cast<uint32_t>(best);
  }
  return c;
}

// `count` located records with their streams, one array per state word.
struct Records {
  std::vector<uint32_t> lower;
  std::vector<double> tau;
  std::vector<double> x;
  std::vector<uint64_t> words[4];
  std::vector<double> out;

  TransportRecords View() {
    return {lower.data(), tau.data(), x.data(),
            {words[0].data(), words[1].data(), words[2].data(), words[3].data()},
            out.data(), lower.size()};
  }
};

Records RandomRecords(Rng& rng, size_t nq, size_t count) {
  Records r;
  for (size_t t = 0; t < count; ++t) {
    r.lower.push_back(static_cast<uint32_t>(rng.UniformInt(nq)));
    const double p = rng.Uniform();
    r.tau.push_back(p < 0.2 ? 0.0 : p < 0.3 ? 1.0 : rng.Uniform());
    r.x.push_back(rng.Uniform(-5.0, 5.0));  // past the grid's [-3, 3] too
    Rng::Words state = Rng::ForStream(rng.Next64(), t).State();
    // s0 = s3 = 0 makes the next output 0, so a bounded draw whose bucket
    // count is not a power of two rejects it.
    if (rng.Uniform() < 0.1) state = {0, rng.Next64() | 1, rng.Next64(), 0};
    for (size_t w = 0; w < 4; ++w) r.words[w].push_back(state[w]);
  }
  r.out.assign(count, 0.0);
  return r;
}

TEST(SimdTest, TransportBitIdenticalToScalar) {
  // Channels of 2-600 rows, strengths 0, 0.37 and 1, and counts 0-9 and
  // 256 (every tail of the four-lane loop): the vector entry must write
  // the same bytes, leave every stream in the same state and count the
  // same fallbacks as the scalar entry, which draws through Rng.
  Rng rng(2024);
  std::vector<size_t> counts;
  for (size_t n = 0; n <= 9; ++n) counts.push_back(n);
  counts.push_back(256);
  size_t fallbacks = 0;
  size_t crafted = 0;
  for (size_t nq : {2, 3, 5, 17, 64, 255, 600}) {
    const Channel channel = RandomChannel(rng, nq);
    for (double strength : {0.0, 0.37, 1.0}) {
      for (size_t count : counts) {
        Records scalar = RandomRecords(rng, nq, count);
        Records vector = scalar;
        for (size_t t = 0; t < count; ++t) crafted += scalar.words[0][t] == 0;
        const size_t scalar_fallbacks =
            ScalarOps().transport(channel.View(strength), scalar.View());
        const size_t vector_fallbacks =
            BestOps().transport(channel.View(strength), vector.View());
        SCOPED_TRACE("n_q " + std::to_string(nq) + " strength " + std::to_string(strength) +
                     " count " + std::to_string(count));
        EXPECT_EQ(scalar_fallbacks, vector_fallbacks);
        if (count > 0) {  // memcmp takes no null pointer, even for 0 bytes
          EXPECT_EQ(0, std::memcmp(scalar.out.data(), vector.out.data(), count * sizeof(double)));
        }
        for (size_t w = 0; w < 4; ++w) EXPECT_EQ(scalar.words[w], vector.words[w]) << "word " << w;
        fallbacks += scalar_fallbacks;
      }
    }
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(crafted, 0u);
}

TEST(SimdTest, EmptyInputs) {
  const Ops& best = BestOps();
  EXPECT_EQ(0.0, best.sum(nullptr, 0));
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
  EXPECT_TRUE(isa == "scalar" || isa == "avx2") << isa;
}

}  // namespace
}  // namespace otfair::common::simd
