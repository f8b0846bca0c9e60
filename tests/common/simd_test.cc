#include "common/simd.h"

#include <algorithm>
#include <bit>
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

// The widest compiled lane count is 4 (AVX2 doubles); the parity sweep
// takes every unaligned length up to 4*lanes + 3, and longer rows run the
// four-lane loops many times over.
constexpr size_t kMaxLen = 4 * 4 + 3;
constexpr size_t kUnrollLen = 67;

std::vector<double> RandomVec(Rng& rng, size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (auto& x : v) x = lo + (hi - lo) * rng.Uniform();
  return v;
}

// Every kernel matches its scalar entry bit for bit.
void ExpectSameBits(double expected, double actual) {
  EXPECT_EQ(std::bit_cast<uint64_t>(expected), std::bit_cast<uint64_t>(actual))
      << expected << " vs " << actual;
}

double ScalarLse(const std::vector<double>& x, const std::vector<double>& y) {
  return ScalarOps().lse_diff(x.data(), y.data(), x.size());
}

double BestLse(const std::vector<double>& x, const std::vector<double>& y) {
  return BestOps().lse_diff(x.data(), y.data(), x.size());
}

class SimdParityTest : public ::testing::TestWithParam<size_t> {};

// lse_diff is the one reduction left in the tables. The names
// SumDotMatchScalar, MaxKernelsBitExact and ElementwiseKernelsBitExact
// predate the removal of the sum, dot, max, max-abs-diff and element-wise
// kernels and are kept so the test ids stay comparable across runs; each
// now checks one part of lse_diff.

// The exp-sum: both tables stay within 1e-12 of a long-double two-pass
// log-sum-exp over std::exp terms.
TEST_P(SimdParityTest, SumDotMatchScalar) {
  const size_t n = GetParam();
  Rng rng(1234 + n);
  const auto x = RandomVec(rng, n, -50.0, 50.0);
  const auto y = RandomVec(rng, n, -30.0, 30.0);
  long double hi = -kInf;
  for (size_t i = 0; i < n; ++i) hi = std::max(hi, static_cast<long double>(x[i] - y[i]));
  long double acc = 0.0L;
  for (size_t i = 0; i < n; ++i) acc += std::exp(static_cast<long double>(x[i] - y[i]) - hi);
  const auto expected = static_cast<double>(hi + std::log(acc));
  const double tolerance = 1e-12 * std::max(1.0, std::abs(expected));
  EXPECT_NEAR(expected, ScalarLse(x, y), tolerance);
  EXPECT_NEAR(expected, BestLse(x, y), tolerance);
}

// The max pass: a term that tops every other by more than 40 leaves an
// exp-sum of exactly 1, so the LSE is that term's difference, bit for bit,
// wherever it sits (each lane, each tail slot). The other terms lie 600 to
// 800 below it, across the exp's -708.39 underflow clamp.
TEST_P(SimdParityTest, MaxKernelsBitExact) {
  const size_t n = GetParam();
  Rng rng(99 + n);
  for (size_t top = 0; top < n; ++top) {
    const auto y = RandomVec(rng, n, -10.0, 10.0);
    auto x = RandomVec(rng, n, -800.0, -600.0);
    for (size_t i = 0; i < n; ++i) x[i] += y[i];
    x[top] = rng.Uniform(-5.0, 5.0);
    SCOPED_TRACE("top " + std::to_string(top));
    ExpectSameBits(x[top] - y[top], ScalarLse(x, y));
    ExpectSameBits(x[top] - y[top], BestLse(x, y));
  }
}

// The exp of each term: a row of -inf terms but one at 0 and one at
// v in [-3, 0) puts exp(v) alone beside the 1, in every lane and tail
// slot. Both tables give the same bits, within 1e-14 of log(exp(v) + 1).
TEST_P(SimdParityTest, ElementwiseKernelsBitExact) {
  const size_t n = GetParam();
  if (n < 2) return;  // a 1-term row is its own max
  Rng rng(7 + n);
  const std::vector<double> y(n, 0.0);
  for (size_t at = 0; at < n; ++at) {
    std::vector<double> x(n, -kInf);
    x[(at + 1) % n] = 0.0;
    x[at] = rng.Uniform(-3.0, 0.0);
    SCOPED_TRACE("at " + std::to_string(at) + " v " + std::to_string(x[at]));
    ExpectSameBits(ScalarLse(x, y), BestLse(x, y));
    EXPECT_NEAR(std::log(std::exp(x[at]) + 1.0), BestLse(x, y), 1e-14);
  }
}

// A last-bit difference in the exp-sum survives the final log only in a
// share of rows (the more so the narrower the spread), so each parity test
// below checks many rows per length.
constexpr int kRowsPerSpread = 32;

TEST_P(SimdParityTest, LseDiffMatchesScalar) {
  const size_t n = GetParam();
  Rng rng(4242 + n);
  // Sinkhorn feeds log-potential minus scaled-cost differences that span a
  // wide dynamic range: narrow and moderate spreads, and differences past
  // both exp clamps (-708.39 and 709.4), whose terms flush to 0 in lanes
  // and tail.
  for (const double spread : {1.0, 5.0, 50.0, 800.0}) {
    SCOPED_TRACE("spread " + std::to_string(spread));
    for (int row = 0; row < kRowsPerSpread; ++row) {
      const auto x = RandomVec(rng, n, -spread, spread);
      const auto y = RandomVec(rng, n, -spread / 2, spread / 2);
      ExpectSameBits(ScalarLse(x, y), BestLse(x, y));
    }
  }
}

TEST_P(SimdParityTest, LseDiffHandlesNegInfTerms) {
  const size_t n = GetParam();
  Rng rng(5 + n);
  for (int row = 0; row < kRowsPerSpread; ++row) {
    auto x = RandomVec(rng, n, -5.0, 5.0);
    const auto y = RandomVec(rng, n, -5.0, 5.0);
    // Zero-mass atoms enter the log-domain solver as -inf log-weights.
    for (size_t i = row % 2; i < n; i += 2) x[i] = -kInf;
    ExpectSameBits(ScalarLse(x, y), BestLse(x, y));
  }

  // All terms -inf: the LSE is -inf in both paths.
  const std::vector<double> all_ninf(n, -kInf);
  const std::vector<double> y(n, 0.0);
  EXPECT_EQ(-kInf, ScalarLse(all_ninf, y));
  EXPECT_EQ(-kInf, BestLse(all_ninf, y));
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
  EXPECT_EQ(-kInf, ScalarOps().lse_diff(nullptr, nullptr, 0));
  EXPECT_EQ(-kInf, BestOps().lse_diff(nullptr, nullptr, 0));
}

TEST(SimdTest, VectorExpAccuracyAcrossRange) {
  // A 4-lane lse with two -inf lanes isolates one lane's exp:
  // lse([v, -inf, -inf, 0]) = log(exp(v) + 1), on both tables.
  for (const Ops* ops : {&ScalarOps(), &BestOps()}) {
    for (double v = -700.0; v <= 0.0; v += 0.37) {
      const double x[4] = {v, -kInf, -kInf, 0.0};
      const double y[4] = {0.0, 0.0, 0.0, 0.0};
      const double expected = std::log(std::exp(v) + 1.0);
      const double actual = ops->lse_diff(x, y, 4);
      EXPECT_NEAR(expected, actual, 1e-14 * std::max(1.0, std::abs(expected)))
          << ops->isa << " v=" << v;
    }
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
