// QuantileSketch contract tests. The load-bearing ones:
//
//  - Merge algebra: sharded sketches merged in ANY order (and any
//    grouping) produce bit-identical quantile estimates — the property
//    the serving redesign path relies on when combining per-shard
//    channel sketches.
//  - Accuracy: against exact sample quantiles of simulated data (binary
//    and K = 4 level mixtures), estimates honor the relative-accuracy
//    guarantee |q_est - q_exact| <= alpha * |q_exact| plus one
//    rank-discretization step.
//  - Bounded memory: bucket occupancy stays under the documented ceiling
//    no matter how many values stream in.
//  - Sweep parity: the batch Quantiles/Cdfs answer every probe bit for bit
//    as a per-probe walk over every bucket does.
//  - Keys: the table lookup Add keys values with gives the log formula's
//    key at every key boundary and on 10M random magnitudes.
//  - Subtract: removing a prefix's sketch leaves exactly the suffix's
//    buckets, and a non-prefix is refused without touching the sketch.

#include "stats/quantile_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/rng.h"
#include "sim/gaussian_mixture.h"

namespace otfair::stats {
namespace {

std::vector<double> GaussianSample(size_t n, double mean, double sigma, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.Normal(mean, sigma);
  return xs;
}

/// The sketch guarantee: relative error alpha on the value, plus one
/// neighbor-rank step to absorb rank discretization at bucket boundaries.
void ExpectQuantileWithinBound(const QuantileSketch& sketch, const std::vector<double>& xs,
                               double p, double alpha) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const size_t rank = static_cast<size_t>(p * static_cast<double>(n - 1));
  const double est = sketch.Quantile(p);
  const size_t lo_rank = rank > 0 ? rank - 1 : 0;
  const size_t hi_rank = rank + 1 < n ? rank + 1 : n - 1;
  const double lo = sorted[lo_rank];
  const double hi = sorted[hi_rank];
  const double slack_lo = alpha * std::fabs(lo) + 1e-12;
  const double slack_hi = alpha * std::fabs(hi) + 1e-12;
  EXPECT_GE(est, lo - slack_lo) << "p=" << p;
  EXPECT_LE(est, hi + slack_hi) << "p=" << p;
}

TEST(QuantileSketchTest, EmptySketchReportsNaN) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_TRUE(std::isnan(sketch.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(sketch.min()));
  EXPECT_TRUE(std::isnan(sketch.max()));
  EXPECT_EQ(sketch.Cdf(0.0), 0.0);
}

TEST(QuantileSketchTest, DropsNonFiniteValues) {
  QuantileSketch sketch;
  sketch.Add(1.0);
  sketch.Add(std::nan(""));
  sketch.Add(std::numeric_limits<double>::infinity());
  sketch.Add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.dropped(), 3u);
  EXPECT_EQ(sketch.Quantile(0.5), 1.0);
}

TEST(QuantileSketchTest, ExtremeQuantilesAreExact) {
  QuantileSketch sketch;
  const std::vector<double> xs = GaussianSample(5000, 1.5, 2.0, 11);
  for (double x : xs) sketch.Add(x);
  EXPECT_EQ(sketch.Quantile(0.0), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(sketch.Quantile(1.0), *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(sketch.min(), sketch.Quantile(0.0));
  EXPECT_EQ(sketch.max(), sketch.Quantile(1.0));
}

TEST(QuantileSketchTest, AccuracyAgainstExactQuantilesGaussian) {
  // Mixed-sign data exercises the negative store, the zero bucket, and the
  // positive store in one stream.
  QuantileSketch sketch;
  std::vector<double> xs = GaussianSample(20000, 0.0, 1.0, 21);
  xs.push_back(0.0);
  for (double x : xs) sketch.Add(x);
  EXPECT_EQ(sketch.count(), xs.size());
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
    ExpectQuantileWithinBound(sketch, xs, p, QuantileSketch::kRelativeAccuracy);
}

TEST(QuantileSketchTest, AccuracyOnBinarySimulatedChannels) {
  // The serving use case: per-(u,s) channel streams from the paper's
  // binary Gaussian mixture.
  common::Rng rng(31);
  auto dataset =
      sim::SimulateGaussianMixture(8000, sim::GaussianSimConfig::PaperDefault(), rng);
  ASSERT_TRUE(dataset.ok());
  for (int s = 0; s <= 1; ++s) {
    QuantileSketch sketch;
    std::vector<double> xs;
    for (size_t i = 0; i < dataset->size(); ++i) {
      if (dataset->s(i) != s) continue;
      xs.push_back(dataset->feature(i, 0));
      sketch.Add(xs.back());
    }
    ASSERT_GT(xs.size(), 1000u);
    for (double p : {0.05, 0.25, 0.5, 0.75, 0.95})
      ExpectQuantileWithinBound(sketch, xs, p, QuantileSketch::kRelativeAccuracy);
  }
}

TEST(QuantileSketchTest, AccuracyOnFourLevelMixture) {
  // K = 4 strata with well-separated means: each stratum's sketch must
  // track its own exact quantiles (the multi-group redesign input).
  const double means[4] = {-6.0, -1.0, 1.5, 8.0};
  for (int level = 0; level < 4; ++level) {
    QuantileSketch sketch;
    const std::vector<double> xs =
        GaussianSample(6000, means[level], 0.7, 40 + static_cast<uint64_t>(level));
    for (double x : xs) sketch.Add(x);
    for (double p : {0.1, 0.5, 0.9})
      ExpectQuantileWithinBound(sketch, xs, p, QuantileSketch::kRelativeAccuracy);
  }
}

TEST(QuantileSketchTest, MergeMatchesSingleStreamExactly) {
  // Values split across shards and merged must reproduce the single-sketch
  // estimates bit-for-bit: bucket counts are integers, so there is no
  // floating-point merge drift.
  const std::vector<double> xs = GaussianSample(12000, -0.5, 3.0, 51);
  QuantileSketch whole;
  QuantileSketch shards[3];
  for (size_t i = 0; i < xs.size(); ++i) {
    whole.Add(xs[i]);
    shards[i % 3].Add(xs[i]);
  }
  QuantileSketch merged;
  for (const QuantileSketch& shard : shards) merged.Merge(shard);
  ASSERT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  for (double p = 0.0; p <= 1.0; p += 0.05)
    EXPECT_EQ(merged.Quantile(p), whole.Quantile(p)) << "p=" << p;
}

TEST(QuantileSketchTest, MergeIsCommutativeAndAssociativeBitForBit) {
  // Build 5 shard sketches, then combine them in several distinct orders
  // and groupings; every combination must yield identical estimates at a
  // fine grid of quantiles.
  constexpr size_t kShards = 5;
  QuantileSketch shards[kShards];
  for (size_t shard = 0; shard < kShards; ++shard) {
    const std::vector<double> xs =
        GaussianSample(3000 + 500 * shard, static_cast<double>(shard) - 2.0, 1.0 + 0.3 * shard,
                       60 + shard);
    for (double x : xs) shards[shard].Add(x);
  }
  auto combine = [&](const std::vector<size_t>& order) {
    QuantileSketch out;
    for (size_t i : order) out.Merge(shards[i]);
    return out;
  };
  const QuantileSketch forward = combine({0, 1, 2, 3, 4});
  const QuantileSketch backward = combine({4, 3, 2, 1, 0});
  const QuantileSketch shuffled = combine({2, 0, 4, 1, 3});
  // Associativity: ((0+1)+(2+3))+4 as a different grouping.
  QuantileSketch left, right, grouped;
  left.Merge(shards[0]);
  left.Merge(shards[1]);
  right.Merge(shards[2]);
  right.Merge(shards[3]);
  grouped.Merge(left);
  grouped.Merge(right);
  grouped.Merge(shards[4]);
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    const double reference = forward.Quantile(p);
    EXPECT_EQ(backward.Quantile(p), reference) << "p=" << p;
    EXPECT_EQ(shuffled.Quantile(p), reference) << "p=" << p;
    EXPECT_EQ(grouped.Quantile(p), reference) << "p=" << p;
  }
  EXPECT_EQ(backward.count(), forward.count());
  EXPECT_EQ(grouped.bucket_count(), forward.bucket_count());
}

TEST(QuantileSketchTest, BoundedMemoryUnderAdversarialStream) {
  // Stream values spanning far beyond the clamped magnitude range; bucket
  // occupancy must stay below the documented ceiling (~5.5k at alpha=0.01).
  QuantileSketch sketch;
  common::Rng rng(71);
  for (int i = 0; i < 200000; ++i) {
    const double exponent = rng.Uniform() * 40.0 - 20.0;  // 1e-20 .. 1e20
    const double sign = rng.Uniform() < 0.5 ? -1.0 : 1.0;
    sketch.Add(sign * std::pow(10.0, exponent));
  }
  sketch.Add(0.0);
  EXPECT_EQ(sketch.count(), 200001u);
  EXPECT_LT(sketch.bucket_count(), 6000u);
  // Quantiles remain ordered even with clamped tails.
  double prev = sketch.Quantile(0.0);
  for (double p = 0.1; p <= 1.0; p += 0.1) {
    const double q = sketch.Quantile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
}

TEST(QuantileSketchTest, CdfIsMonotoneAndMatchesEmpirical) {
  QuantileSketch sketch;
  const std::vector<double> xs = GaussianSample(10000, 0.0, 1.0, 81);
  for (double x : xs) sketch.Add(x);
  double prev = 0.0;
  for (double x = -4.0; x <= 4.0; x += 0.25) {
    const double c = sketch.Cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
    const double empirical =
        static_cast<double>(std::count_if(xs.begin(), xs.end(),
                                          [&](double v) { return v <= x; })) /
        static_cast<double>(xs.size());
    EXPECT_NEAR(c, empirical, 0.02) << "x=" << x;
  }
  EXPECT_EQ(sketch.Cdf(-100.0), 0.0);
  EXPECT_EQ(sketch.Cdf(100.0), 1.0);
}

TEST(QuantileSketchTest, ResetClearsObservedStateKeepsGeometry) {
  QuantileSketch sketch;
  for (double x : GaussianSample(1000, 2.0, 1.0, 91)) sketch.Add(x);
  ASSERT_GT(sketch.bucket_count(), 0u);
  sketch.Reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.bucket_count(), 0u);
  EXPECT_TRUE(std::isnan(sketch.Quantile(0.5)));
  sketch.Add(3.0);
  EXPECT_EQ(sketch.Quantile(0.5), 3.0);
}

TEST(QuantileSketchSerializationTest, RoundTripRestoresBitIdenticalEstimates) {
  QuantileSketch sketch;
  // Positives, negatives, zeros, extremes — every store participates.
  for (double x : GaussianSample(5000, 0.0, 3.0, 17)) sketch.Add(x);
  sketch.Add(0.0);
  sketch.Add(0.0);
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);

  QuantileSketch restored;
  common::ByteReader reader(bytes);
  ASSERT_TRUE(restored.DeserializeFrom(reader).ok());
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored.count(), sketch.count());
  EXPECT_EQ(restored.dropped(), sketch.dropped());
  EXPECT_EQ(restored.min(), sketch.min());
  EXPECT_EQ(restored.max(), sketch.max());
  for (double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0})
    EXPECT_EQ(restored.Quantile(p), sketch.Quantile(p)) << "p=" << p;
  // And the restored sketch re-serializes to the same bytes.
  std::string again;
  common::ByteWriter writer2(&again);
  restored.SerializeTo(writer2);
  EXPECT_EQ(again, bytes);
}

TEST(QuantileSketchSerializationTest, EmptySketchRoundTrips) {
  QuantileSketch sketch;
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);
  QuantileSketch restored;
  common::ByteReader reader(bytes);
  ASSERT_TRUE(restored.DeserializeFrom(reader).ok());
  EXPECT_EQ(restored.count(), 0u);
  EXPECT_TRUE(std::isnan(restored.Quantile(0.5)));
}

TEST(QuantileSketchSerializationTest, CorruptPayloadsRejectedWithoutMutating) {
  QuantileSketch sketch;
  for (double x : GaussianSample(2000, 1.0, 1.0, 18)) sketch.Add(x);
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);

  // Truncations: every parse fails, and the target sketch keeps its prior
  // state (commit-on-success semantics).
  for (size_t len : {size_t{0}, size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    QuantileSketch target;
    target.Add(42.0);
    common::ByteReader reader(bytes.data(), len);
    EXPECT_FALSE(target.DeserializeFrom(reader).ok()) << "prefix " << len;
    EXPECT_EQ(target.count(), 1u);
    EXPECT_EQ(target.Quantile(0.5), 42.0);
  }
  // A bucket-count/total mismatch (flip a count byte) is caught by the
  // overflow-safe sum check.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  QuantileSketch target;
  common::ByteReader reader(flipped);
  // Either an invalid-structure error or (if the flip hit min/max) a
  // finite-extremes failure; it must not be silently accepted as-is with
  // inconsistent counts.
  if (target.DeserializeFrom(reader).ok()) {
    // The flip landed somewhere value-only (e.g. min/max mantissa) that
    // keeps the invariants intact; counts must still be self-consistent.
    EXPECT_EQ(target.count(), sketch.count());
  }
}

/// The per-probe algorithm the batch sweeps replaced, kept as their
/// oracle: rebuilt from the sketch's serialized state, every query walks
/// every bucket.
class BucketWalkOracle {
 public:
  explicit BucketWalkOracle(const QuantileSketch& sketch) {
    std::string bytes;
    common::ByteWriter writer(&bytes);
    sketch.SerializeTo(writer);
    common::ByteReader reader(bytes);
    const double alpha = QuantileSketch::kRelativeAccuracy;
    const double gamma = (1.0 + alpha) / (1.0 - alpha);
    std::vector<std::pair<double, uint64_t>> stores[2];  // negative, positive
    for (auto& store : stores) {
      int32_t base = 0;
      uint64_t size = 0;
      EXPECT_TRUE(reader.I32(&base) && reader.U64(&size));
      std::vector<uint64_t> counts(size);
      EXPECT_TRUE(reader.U64s(counts.data(), counts.size()));
      for (size_t i = 0; i < counts.size(); ++i) {
        const int key = base + static_cast<int>(i);
        if (counts[i] > 0) store.push_back({2.0 * std::pow(gamma, key) / (gamma + 1.0), counts[i]});
      }
    }
    uint64_t zero_count = 0;
    uint64_t dropped = 0;
    EXPECT_TRUE(reader.U64(&zero_count) && reader.U64(&count_) && reader.U64(&dropped) &&
                reader.F64(&min_) && reader.F64(&max_));
    // Ascending value order: negatives (descending key), zero, positives.
    for (auto it = stores[0].rbegin(); it != stores[0].rend(); ++it)
      buckets_.push_back({-it->first, it->second});
    if (zero_count > 0) buckets_.push_back({0.0, zero_count});
    buckets_.insert(buckets_.end(), stores[1].begin(), stores[1].end());
  }

  double Quantile(double p) const {
    if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
    p = std::min(1.0, std::max(0.0, p));
    if (p <= 0.0) return min_;
    if (p >= 1.0) return max_;
    const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1));
    uint64_t cumulative = 0;
    double result = max_;
    bool found = false;
    for (const auto& [value, n] : buckets_) {
      if (found) continue;
      cumulative += n;
      if (cumulative > rank) {
        result = value;
        found = true;
      }
    }
    return std::min(max_, std::max(min_, result));
  }

  double Cdf(double x) const {
    if (count_ == 0) return 0.0;
    if (x < min_) return 0.0;
    if (x >= max_) return 1.0;
    uint64_t below = 0;
    for (const auto& [value, n] : buckets_)
      if (value <= x) below += n;
    return static_cast<double>(below) / static_cast<double>(count_);
  }

  const std::vector<std::pair<double, uint64_t>>& buckets() const { return buckets_; }

 private:
  std::vector<std::pair<double, uint64_t>> buckets_;
  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Bitwise equality: NaN matches NaN, and -0 differs from +0.
void ExpectSameBits(double got, double want, const char* what, double probe) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << "(" << probe << "): sweep " << got << " vs walk " << want;
}

/// Compares both sweeps against the oracle over ascending probes (and the
/// one-probe forms), then over the same probes descending and shuffled,
/// which restart the walk.
void ExpectSweepsMatchWalk(const QuantileSketch& sketch) {
  const BucketWalkOracle oracle(sketch);
  // Quantile probes: p = 0 and 1, clamped p outside [0, 1], a fine grid,
  // and the redesigner's 512 midpoints.
  std::vector<double> ps = {-0.5, 0.0, 1.0, 1.5};
  for (int i = 1; i < 1000; ++i) ps.push_back(i / 1000.0);
  for (int i = 0; i < 512; ++i) ps.push_back((i + 0.5) / 512.0);
  // CDF probes: far outside and just outside [min, max], every bucket
  // value with its neighbours, and a grid across the range.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {-inf, -1e300, 0.0, 1e300, inf};
  if (sketch.count() > 0) {
    for (double edge : {sketch.min(), sketch.max()})
      for (double x : {edge - 1.0, std::nextafter(edge, -inf), edge,
                       std::nextafter(edge, inf), edge + 1.0})
        xs.push_back(x);
    for (int i = 0; i <= 200; ++i)
      xs.push_back(sketch.min() - 1.0 + (sketch.max() - sketch.min() + 2.0) * i / 200.0);
  }
  for (const auto& bucket : oracle.buckets())
    for (double x : {std::nextafter(bucket.first, -inf), bucket.first,
                     std::nextafter(bucket.first, inf)})
      xs.push_back(x);

  std::sort(ps.begin(), ps.end());
  std::sort(xs.begin(), xs.end());
  std::vector<double> want_quantiles;
  for (double p : ps) want_quantiles.push_back(oracle.Quantile(p));
  std::vector<double> want_cdfs;
  for (double x : xs) want_cdfs.push_back(oracle.Cdf(x));
  // The one-probe forms each walk every bucket, so a stride of the probes.
  for (size_t i = 0; i < ps.size(); i += 5)
    ExpectSameBits(sketch.Quantile(ps[i]), want_quantiles[i], "Quantile", ps[i]);
  for (size_t i = 0; i < xs.size(); i += 5)
    ExpectSameBits(sketch.Cdf(xs[i]), want_cdfs[i], "Cdf", xs[i]);

  // Ascending, descending and shuffled probe orders.
  common::Rng rng(sketch.count() + 1);
  auto check_order = [&](int order, const std::vector<double>& probes,
                         const std::vector<double>& want, bool quantiles) {
    std::vector<size_t> index(probes.size());
    for (size_t i = 0; i < index.size(); ++i) index[i] = i;
    if (order == 1) std::reverse(index.begin(), index.end());
    if (order == 2)
      for (size_t i = index.size(); i > 1; --i) std::swap(index[i - 1], index[rng.UniformInt(i)]);
    std::vector<double> ordered;
    for (size_t i : index) ordered.push_back(probes[i]);
    const std::vector<double> got = quantiles ? sketch.Quantiles(ordered) : sketch.Cdfs(ordered);
    ASSERT_EQ(got.size(), ordered.size());
    for (size_t i = 0; i < index.size(); ++i)
      ExpectSameBits(got[i], want[index[i]], quantiles ? "Quantiles" : "Cdfs", ordered[i]);
  };
  for (int order = 0; order < 3; ++order) {
    check_order(order, ps, want_quantiles, true);
    check_order(order, xs, want_cdfs, false);
  }
}

TEST(QuantileSketchSweepTest, MatchesBucketWalkOnDegenerateSketches) {
  {
    SCOPED_TRACE("empty");
    ExpectSweepsMatchWalk(QuantileSketch());
  }
  for (double value : {1.0, -2.5, 0.0, 1e-13, 3e12}) {
    SCOPED_TRACE("one value " + std::to_string(value));
    QuantileSketch sketch;
    sketch.Add(value);
    ExpectSweepsMatchWalk(sketch);
  }
  {
    SCOPED_TRACE("all zero");
    QuantileSketch sketch;
    for (int i = 0; i < 1000; ++i) sketch.Add(i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 1e-14 : -1e-15));
    ExpectSweepsMatchWalk(sketch);
  }
  {
    SCOPED_TRACE("empty probe lists");
    QuantileSketch sketch;
    sketch.Add(1.0);
    EXPECT_TRUE(sketch.Quantiles({}).empty());
    EXPECT_TRUE(sketch.Cdfs({}).empty());
  }
}

TEST(QuantileSketchSweepTest, MatchesBucketWalkOnRandomizedMixedSignSketches) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    QuantileSketch sketch;
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(4000));
    const double mean = rng.Uniform() * 4.0 - 2.0;
    const double sd = 0.1 + rng.Uniform() * 3.0;
    for (size_t i = 0; i < n; ++i) sketch.Add(rng.Uniform() < 0.05 ? 0.0 : rng.Normal(mean, sd));
    ExpectSweepsMatchWalk(sketch);
  }
  {
    SCOPED_TRACE("clamped magnitudes");
    common::Rng rng(71);
    QuantileSketch sketch;
    for (int i = 0; i < 3000; ++i) {
      const double sign = rng.Uniform() < 0.5 ? -1.0 : 1.0;
      sketch.Add(sign * std::pow(10.0, rng.Uniform() * 40.0 - 20.0));
    }
    ExpectSweepsMatchWalk(sketch);
  }
}

TEST(QuantileSketchSweepTest, MatchesBucketWalkOnMergedAndDeserializedSketches) {
  QuantileSketch shards[3];
  const std::vector<double> xs = GaussianSample(9000, -0.3, 2.0, 101);
  for (size_t i = 0; i < xs.size(); ++i) shards[i % 3].Add(xs[i]);
  QuantileSketch merged;
  for (const QuantileSketch& shard : shards) merged.Merge(shard);
  {
    SCOPED_TRACE("merged");
    ExpectSweepsMatchWalk(merged);
  }
  std::string bytes;
  common::ByteWriter writer(&bytes);
  merged.SerializeTo(writer);
  QuantileSketch restored;
  common::ByteReader reader(bytes);
  ASSERT_TRUE(restored.DeserializeFrom(reader).ok());
  {
    SCOPED_TRACE("deserialized");
    ExpectSweepsMatchWalk(restored);
  }
  const std::vector<double> ps = {0.0, 0.1, 0.5, 0.9, 1.0};
  EXPECT_EQ(restored.Quantiles(ps), merged.Quantiles(ps));
}

// --- Bucket keys ------------------------------------------------------------

/// The bucket key by the log formula Add computed before its lookup
/// tables: clamp(ceil(log(x) / log(gamma))) into the keys of [1e-12, 1e12].
class LogFormulaKeys {
 public:
  LogFormulaKeys()
      : inv_log_gamma_(1.0 / std::log((1.0 + QuantileSketch::kRelativeAccuracy) /
                                      (1.0 - QuantileSketch::kRelativeAccuracy))),
        min_key_(static_cast<int>(std::ceil(std::log(1e-12) * inv_log_gamma_))),
        max_key_(static_cast<int>(std::ceil(std::log(1e12) * inv_log_gamma_))) {}

  int Key(double magnitude) const {
    const double k = std::ceil(std::log(magnitude) * inv_log_gamma_);
    if (k <= min_key_) return min_key_;
    if (k >= max_key_) return max_key_;
    return static_cast<int>(k);
  }

  /// The least double the formula keys `k` or above: bisection over the
  /// bit patterns of the positive doubles in [1e-13, 1e13].
  double LeastDoubleOfKey(int k) const {
    uint64_t lo = std::bit_cast<uint64_t>(1e-13);  // keys below k
    uint64_t hi = std::bit_cast<uint64_t>(1e13);   // keys k or above
    while (hi - lo > 1) {
      const uint64_t mid = lo + (hi - lo) / 2;
      (Key(std::bit_cast<double>(mid)) >= k ? hi : lo) = mid;
    }
    return std::bit_cast<double>(hi);
  }

  int min_key() const { return min_key_; }
  int max_key() const { return max_key_; }

 private:
  double inv_log_gamma_;
  int min_key_;
  int max_key_;
};

/// The key Add filed `x` under, read back from the serialized store of a
/// one-value sketch (its base is the key).
int AddedKey(double x) {
  QuantileSketch sketch;
  sketch.Add(x);
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);
  common::ByteReader reader(bytes);
  int32_t base[2] = {0, 0};
  for (int32_t& store_base : base) {
    uint64_t size = 0;
    EXPECT_TRUE(reader.I32(&store_base) && reader.U64(&size));
    std::vector<uint64_t> counts(size);
    EXPECT_TRUE(reader.U64s(counts.data(), counts.size()));
  }
  return x > 0.0 ? base[1] : base[0];
}

TEST(QuantileSketchKeyTest, TableKeyMatchesLogFormulaAtEveryKeyBoundary) {
  const LogFormulaKeys formula;
  const double inf = std::numeric_limits<double>::infinity();
  size_t boundaries = 0;
  size_t mismatches = 0;
  for (int k = formula.min_key() + 1; k <= formula.max_key(); ++k) {
    const double least = formula.LeastDoubleOfKey(k);
    ASSERT_EQ(formula.Key(least), k);
    ASSERT_EQ(formula.Key(std::nextafter(least, 0.0)), k - 1);
    ++boundaries;
    for (double x : {std::nextafter(least, 0.0), least, std::nextafter(least, inf)}) {
      if (QuantileSketch::KeyOf(x) != formula.Key(x)) {
        ++mismatches;
        ADD_FAILURE() << "KeyOf(" << x << ") = " << QuantileSketch::KeyOf(x) << ", formula "
                      << formula.Key(x);
      }
      // Add files both signs under the same key.
      if (x >= 1e-12) {
        EXPECT_EQ(AddedKey(x), formula.Key(x)) << "x=" << x;
        EXPECT_EQ(AddedKey(-x), formula.Key(x)) << "x=" << -x;
      }
    }
  }
  EXPECT_EQ(boundaries, 2763u);
  EXPECT_EQ(mismatches, 0u);
  // The clamped ends.
  for (double x : {1e-300, 1e-13, 1e-12, 1e12, 1e13, 1e300})
    EXPECT_EQ(QuantileSketch::KeyOf(x), formula.Key(x)) << "x=" << x;
}

TEST(QuantileSketchKeyTest, TableKeyMatchesLogFormulaOnTenMillionRandomMagnitudes) {
  const LogFormulaKeys formula;
  common::Rng rng(2025);
  const double log_lo = std::log(1e-13);
  const double log_span = std::log(1e13) - log_lo;
  size_t mismatches = 0;
  for (int i = 0; i < 10000000; ++i) {
    const double x = std::exp(log_lo + rng.Uniform() * log_span);
    if (QuantileSketch::KeyOf(x) != formula.Key(x) && ++mismatches <= 5)
      ADD_FAILURE() << "KeyOf(" << x << ") = " << QuantileSketch::KeyOf(x) << ", formula "
                    << formula.Key(x);
  }
  EXPECT_EQ(mismatches, 0u);
}

// --- Subtract ---------------------------------------------------------------

/// Serialized bytes without the trailing min/max pair: the buckets and the
/// counters.
std::string BucketBytes(const QuantileSketch& sketch) {
  std::string bytes;
  common::ByteWriter writer(&bytes);
  sketch.SerializeTo(writer);
  return bytes.substr(0, bytes.size() - 2 * sizeof(double));
}

TEST(QuantileSketchSubtractTest, SubtractingAPrefixLeavesTheSuffix) {
  // Mixed signs, zeros and dropped values on both sides of the cut.
  std::vector<double> xs = GaussianSample(6000, 0.3, 2.0, 111);
  for (size_t i = 0; i < xs.size(); i += 97) xs[i] = 0.0;
  xs[1234] = std::numeric_limits<double>::quiet_NaN();
  xs[4321] = std::numeric_limits<double>::infinity();
  QuantileSketch prefix, suffix, whole;
  for (size_t i = 0; i < xs.size(); ++i) {
    (i < 2500 ? prefix : suffix).Add(xs[i]);
    whole.Add(xs[i]);
  }
  QuantileSketch difference = whole;
  ASSERT_TRUE(difference.Subtract(prefix).ok());
  EXPECT_EQ(difference.count(), suffix.count());
  EXPECT_EQ(difference.dropped(), suffix.dropped());
  EXPECT_EQ(difference.bucket_count(), suffix.bucket_count());
  EXPECT_EQ(BucketBytes(difference), BucketBytes(suffix));
  // The extremes stay the whole stream's: an enclosure of the suffix.
  EXPECT_EQ(difference.min(), whole.min());
  EXPECT_EQ(difference.max(), whole.max());
  EXPECT_LE(difference.min(), suffix.min());
  EXPECT_GE(difference.max(), suffix.max());
  // Inside the suffix's range the CDF is the suffix's, bit for bit.
  std::vector<double> probes;
  for (int i = 0; i < 200; ++i)
    probes.push_back(suffix.min() + (suffix.max() - suffix.min()) * i / 200.0);
  EXPECT_EQ(difference.Cdfs(probes), suffix.Cdfs(probes));
  // Adding the prefix back restores the whole sketch exactly.
  difference.Merge(prefix);
  EXPECT_EQ(BucketBytes(difference), BucketBytes(whole));

  // A sketch minus itself is empty, and serializes as a fresh sketch does.
  QuantileSketch emptied = whole;
  ASSERT_TRUE(emptied.Subtract(whole).ok());
  EXPECT_EQ(emptied.count(), 0u);
  EXPECT_EQ(emptied.bucket_count(), 0u);
  EXPECT_TRUE(std::isnan(emptied.Quantile(0.5)));
  std::string emptied_bytes, fresh_bytes;
  common::ByteWriter emptied_writer(&emptied_bytes), fresh_writer(&fresh_bytes);
  emptied.SerializeTo(emptied_writer);
  QuantileSketch().SerializeTo(fresh_writer);
  EXPECT_EQ(emptied_bytes, fresh_bytes);
  // Subtracting an empty sketch changes nothing.
  QuantileSketch unchanged = whole;
  ASSERT_TRUE(unchanged.Subtract(QuantileSketch()).ok());
  EXPECT_EQ(BucketBytes(unchanged), BucketBytes(whole));
}

TEST(QuantileSketchSubtractTest, NonPrefixIsRejectedAndLeavesTheSketchUntouched) {
  // Positive values around 10, plus 1 and 100: the buckets near 30 are
  // empty although 30 lies inside [min, max].
  QuantileSketch sketch;
  for (double x : GaussianSample(3000, 10.0, 1.0, 121)) sketch.Add(x);
  sketch.Add(1.0);
  sketch.Add(100.0);
  std::string before;
  common::ByteWriter writer(&before);
  sketch.SerializeTo(writer);

  QuantileSketch other_stream;  // as many values, drawn afresh
  for (double x : GaussianSample(3002, 10.0, 1.0, 122)) other_stream.Add(x);
  QuantileSketch longer = sketch;  // a superset, not a prefix
  longer.Add(10.0);
  QuantileSketch gap;  // inside [min, max], in an empty bucket
  gap.Add(30.0);
  QuantileSketch wider;  // an occupied bucket, but a value beyond max
  wider.Add(std::nextafter(100.0, 1000.0));
  QuantileSketch dropped;  // a dropped value this sketch never saw
  dropped.Add(std::numeric_limits<double>::quiet_NaN());
  QuantileSketch zero;  // a zero this sketch never saw
  zero.Add(0.0);
  QuantileSketch negative;  // a sign this sketch never saw
  negative.Add(-10.0);
  for (const QuantileSketch* earlier :
       {&other_stream, &longer, &gap, &wider, &dropped, &zero, &negative}) {
    QuantileSketch target = sketch;
    const common::Status status = target.Subtract(*earlier);
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument) << status;
    std::string after;
    common::ByteWriter after_writer(&after);
    target.SerializeTo(after_writer);
    EXPECT_EQ(after, before);
  }
}

}  // namespace
}  // namespace otfair::stats
