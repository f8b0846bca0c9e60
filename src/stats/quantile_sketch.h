#ifndef OTFAIR_STATS_QUANTILE_SKETCH_H_
#define OTFAIR_STATS_QUANTILE_SKETCH_H_

#include <cstdint>
#include <vector>

#include "common/byte_io.h"
#include "common/status.h"

namespace otfair::stats {

/// A mergeable, bounded-memory streaming quantile sketch with relative
/// value-accuracy guarantees (DDSketch-style log-binned buckets).
///
/// Every finite value lands in a bucket keyed by ceil(log_gamma |x|), with
/// gamma = (1 + alpha) / (1 - alpha) and alpha = kRelativeAccuracy, so any
/// returned quantile q satisfies |q - x_true| <= alpha * |x_true| for the
/// value it estimates (plus the usual half-rank discretization). Keys are
/// clamped to the magnitude range [1e-12, 1e12], which bounds the sketch at
/// ~5.5k buckets (~44 KB) no matter how many values stream in — in
/// practice a serving channel touches a few hundred buckets. Exact
/// min/max/count are tracked on the side, so extreme quantiles are exact.
///
/// Determinism and merge algebra: the sketch holds no RNG state, every
/// sketch shares one bucket geometry, and merging is element-wise integer
/// addition of bucket counts, so `Merge` is exactly commutative and
/// associative — per-thread sketches merged in ANY order yield
/// bit-identical quantile estimates. This is the property checkpoint
/// recovery leans on: a restored sketch merged into a fresh one reproduces
/// the checkpointed estimates exactly.
class QuantileSketch {
 public:
  /// Relative value accuracy alpha of every sketch.
  static constexpr double kRelativeAccuracy = 0.01;

  /// The bucket key of a magnitude: clamp(ceil(log(abs_value) /
  /// log(gamma))) into the key range, computed from tables instead of
  /// `log` (the key of every Add; see the .cc). Requires abs_value >= 0.
  static int KeyOf(double abs_value);

  /// Streams one value in. Non-finite values are dropped (counted in
  /// `dropped()`), never folded into the distribution.
  void Add(double x) { AddRow(this, &x, 1); }

  /// Streams values[k] into sketches[k] for every k < n: one row of a
  /// stream kept as one sketch per column, as n Add calls would, with the
  /// key tables looked up once.
  static void AddRow(QuantileSketch* sketches, const double* values, size_t n);

  /// Folds `other` into this sketch. Commutative and associative in the
  /// exact sense.
  void Merge(const QuantileSketch& other);

  /// Removes `earlier`, a sketch of a prefix of this sketch's stream,
  /// leaving the sketch of the suffix: bucket counts, count and dropped
  /// subtract exactly. min and max stay this sketch's (an enclosure of the
  /// suffix's values, not its exact extremes). Returns kInvalidArgument and
  /// leaves the sketch untouched when `earlier` cannot be a prefix (a
  /// bucket or counter exceeds this sketch's, or its extremes fall
  /// outside this sketch's).
  common::Status Subtract(const QuantileSketch& earlier);

  /// Finite values observed.
  uint64_t count() const { return count_; }
  /// Non-finite values rejected by Add.
  uint64_t dropped() const { return dropped_; }
  /// Exact extremes of the observed values; NaN when empty.
  double min() const;
  double max() const;

  /// Estimated p-quantile for each p of `ps` (p clamped to [0, 1]); NaN
  /// when empty. p = 0 and p = 1 return the exact min/max, and every
  /// estimate is clamped into [min, max]. One bucket walk answers every
  /// probe when `ps` ascends; a probe below its predecessor restarts the
  /// walk, so any order answers exactly as one-probe calls do.
  std::vector<double> Quantiles(const std::vector<double>& ps) const;

  /// Estimated fraction of observed mass <= x for each x of `xs`; 0 when
  /// empty. One bucket walk answers every probe when `xs` ascends, with the
  /// same restart rule as Quantiles.
  std::vector<double> Cdfs(const std::vector<double>& xs) const;

  /// One-probe forms of the two sweeps.
  double Quantile(double p) const { return Quantiles({p})[0]; }
  double Cdf(double x) const { return Cdfs({x})[0]; }

  /// Drops all observed state.
  void Reset();

  /// Appends the full sketch state (every bucket count + exact
  /// min/max/count) to `writer`. A sketch restored with DeserializeFrom is
  /// bit-identical to this one: same buckets, same counts, same extremes —
  /// so Quantile/Cdf answer identically. This is the property checkpoint
  /// recovery relies on.
  void SerializeTo(common::ByteWriter& writer) const;

  /// Replaces this sketch's state with one previously written by
  /// SerializeTo, validating every field: truncated input, impossible
  /// bucket spans, count mismatches, and non-finite extremes all return
  /// kInvalidArgument and leave the sketch untouched.
  common::Status DeserializeFrom(common::ByteReader& reader);

  /// Occupied bucket-array length (a memory gauge, exposed for tests and
  /// the bounded-memory claim).
  size_t bucket_count() const;

 private:
  /// One sign's bucket array: counts over a contiguous key range starting
  /// at `base`. Grown on demand; key clamping bounds its length.
  struct Store {
    std::vector<uint64_t> counts;
    int base = 0;

    void Add(int key, uint64_t n) {
      // key < base wraps to a huge offset.
      const size_t offset = static_cast<size_t>(key - base);
      if (offset < counts.size()) {
        counts[offset] += n;
        return;
      }
      Grow(key, n);
    }
    /// Add's slow path: the first bucket, or one outside the array.
    void Grow(int key, uint64_t n);
    /// Count of `key`'s bucket (0 outside the array).
    uint64_t At(int key) const;
    /// Subtracts `earlier`'s counts (each at most this store's), then trims
    /// the emptied buckets at both ends.
    void Subtract(const Store& earlier);
  };

  /// One non-empty bucket: its value estimate and the count of every
  /// observation up to and including it.
  struct Bucket {
    double value;
    uint64_t cumulative;
  };

  /// Every non-empty bucket in ascending value order: negatives
  /// (descending key), zero, positives (ascending key).
  std::vector<Bucket> AscendingBuckets() const;

  Store negative_;
  Store positive_;
  uint64_t zero_count_ = 0;
  uint64_t count_ = 0;
  uint64_t dropped_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace otfair::stats

#endif  // OTFAIR_STATS_QUANTILE_SKETCH_H_
