#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace otfair::stats {

using common::Status;

namespace {

/// Magnitudes below this collapse into the zero bucket; above the inverse,
/// into the top bucket. Together with the log-bin geometry this caps the
/// key span (and therefore sketch memory) at a constant.
constexpr double kMinAbs = 1e-12;
constexpr double kMaxAbs = 1e12;

}  // namespace

QuantileSketch::QuantileSketch(const Options& options) {
  alpha_ = std::min(0.25, std::max(1e-4, options.relative_accuracy));
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  min_key_ = static_cast<int>(std::ceil(std::log(kMinAbs) * inv_log_gamma_));
  max_key_ = static_cast<int>(std::ceil(std::log(kMaxAbs) * inv_log_gamma_));
}

void QuantileSketch::Store::Add(int key, uint64_t n) {
  if (counts.empty()) {
    base = key;
    counts.push_back(n);
    return;
  }
  if (key < base) {
    counts.insert(counts.begin(), static_cast<size_t>(base - key), 0);
    base = key;
  } else if (key >= base + static_cast<int>(counts.size())) {
    counts.resize(static_cast<size_t>(key - base) + 1, 0);
  }
  counts[static_cast<size_t>(key - base)] += n;
}

int QuantileSketch::KeyFor(double abs_value) const {
  const double k = std::ceil(std::log(abs_value) * inv_log_gamma_);
  if (k <= min_key_) return min_key_;
  if (k >= max_key_) return max_key_;
  return static_cast<int>(k);
}

double QuantileSketch::BucketValue(int key) const {
  // Midpoint (in the relative sense) of the bucket (gamma^{k-1}, gamma^k]:
  // worst-case relative error alpha for any value in the bucket.
  return 2.0 * std::pow(gamma_, key) / (gamma_ + 1.0);
}

void QuantileSketch::Add(double x) {
  if (!std::isfinite(x)) {
    ++dropped_;
    return;
  }
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double ax = std::fabs(x);
  if (ax < kMinAbs) {
    ++zero_count_;
  } else if (x > 0.0) {
    positive_.Add(KeyFor(ax), 1);
  } else {
    negative_.Add(KeyFor(ax), 1);
  }
}

Status QuantileSketch::Merge(const QuantileSketch& other) {
  if (std::fabs(alpha_ - other.alpha_) > 1e-12)
    return Status::InvalidArgument("cannot merge sketches with different relative accuracy");
  for (size_t i = 0; i < other.negative_.counts.size(); ++i)
    if (other.negative_.counts[i] > 0)
      negative_.Add(other.negative_.base + static_cast<int>(i), other.negative_.counts[i]);
  for (size_t i = 0; i < other.positive_.counts.size(); ++i)
    if (other.positive_.counts[i] > 0)
      positive_.Add(other.positive_.base + static_cast<int>(i), other.positive_.counts[i]);
  zero_count_ += other.zero_count_;
  dropped_ += other.dropped_;
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
  }
  return Status::Ok();
}

double QuantileSketch::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double QuantileSketch::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

std::vector<QuantileSketch::Bucket> QuantileSketch::AscendingBuckets() const {
  std::vector<Bucket> buckets;
  buckets.reserve(bucket_count());
  uint64_t cumulative = 0;
  for (size_t i = negative_.counts.size(); i-- > 0;) {
    if (negative_.counts[i] == 0) continue;
    cumulative += negative_.counts[i];
    buckets.push_back({-BucketValue(negative_.base + static_cast<int>(i)), cumulative});
  }
  if (zero_count_ > 0) {
    cumulative += zero_count_;
    buckets.push_back({0.0, cumulative});
  }
  for (size_t i = 0; i < positive_.counts.size(); ++i) {
    if (positive_.counts[i] == 0) continue;
    cumulative += positive_.counts[i];
    buckets.push_back({BucketValue(positive_.base + static_cast<int>(i)), cumulative});
  }
  return buckets;
}

std::vector<double> QuantileSketch::Quantiles(const std::vector<double>& ps) const {
  std::vector<double> out(ps.size(), std::numeric_limits<double>::quiet_NaN());
  if (count_ == 0) return out;
  const std::vector<Bucket> buckets = AscendingBuckets();
  size_t j = 0;  // buckets before j end at or below the previous probe's rank
  uint64_t previous_rank = 0;
  for (size_t i = 0; i < ps.size(); ++i) {
    const double p = std::min(1.0, std::max(0.0, ps[i]));
    if (p <= 0.0) {
      out[i] = min_;
      continue;
    }
    if (p >= 1.0) {
      out[i] = max_;
      continue;
    }
    // 0-based rank of the order statistic the estimate targets.
    const uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1));
    if (rank < previous_rank) j = 0;
    previous_rank = rank;
    while (j < buckets.size() && buckets[j].cumulative <= rank) ++j;
    const double value = j < buckets.size() ? buckets[j].value : max_;
    out[i] = std::min(max_, std::max(min_, value));
  }
  return out;
}

std::vector<double> QuantileSketch::Cdfs(const std::vector<double>& xs) const {
  std::vector<double> out(xs.size(), 0.0);
  if (count_ == 0) return out;
  const std::vector<Bucket> buckets = AscendingBuckets();
  size_t j = 0;  // buckets before j hold values <= the previous probe
  double previous = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    if (!(x >= previous)) j = 0;  // a descending or NaN probe restarts the walk
    previous = x;
    if (x < min_) continue;
    if (x >= max_) {
      out[i] = 1.0;
      continue;
    }
    while (j < buckets.size() && buckets[j].value <= x) ++j;
    if (j > 0)
      out[i] = static_cast<double>(buckets[j - 1].cumulative) / static_cast<double>(count_);
  }
  return out;
}

void QuantileSketch::Reset() {
  negative_.counts.clear();
  positive_.counts.clear();
  negative_.base = 0;
  positive_.base = 0;
  zero_count_ = 0;
  count_ = 0;
  dropped_ = 0;
  min_ = 0.0;
  max_ = 0.0;
}

size_t QuantileSketch::bucket_count() const {
  return negative_.counts.size() + positive_.counts.size() + (zero_count_ > 0 ? 1 : 0);
}

void QuantileSketch::SerializeTo(common::ByteWriter& writer) const {
  writer.F64(alpha_);
  for (const Store* store : {&negative_, &positive_}) {
    writer.I32(store->base);
    writer.U64(store->counts.size());
    writer.U64s(store->counts.data(), store->counts.size());
  }
  writer.U64(zero_count_);
  writer.U64(count_);
  writer.U64(dropped_);
  writer.F64(min_);
  writer.F64(max_);
}

Status QuantileSketch::DeserializeFrom(common::ByteReader& reader) {
  double alpha = 0.0;
  if (!reader.F64(&alpha)) return Status::InvalidArgument("sketch: truncated alpha");
  if (!std::isfinite(alpha) || alpha < 1e-4 || alpha > 0.25)
    return Status::InvalidArgument("sketch: relative accuracy out of range");

  // Rebuild the geometry from alpha, then validate every bucket span
  // against it before any state is committed.
  QuantileSketch fresh(Options{alpha});

  const size_t key_span =
      static_cast<size_t>(fresh.max_key_ - fresh.min_key_) + 1;
  for (Store* store : {&fresh.negative_, &fresh.positive_}) {
    int32_t base = 0;
    uint64_t size = 0;
    if (!reader.I32(&base) || !reader.U64(&size))
      return Status::InvalidArgument("sketch: truncated store header");
    if (size > key_span)
      return Status::InvalidArgument("sketch: store size exceeds key span");
    if (size > 0 &&
        (base < fresh.min_key_ ||
         base + static_cast<int64_t>(size) - 1 > fresh.max_key_))
      return Status::InvalidArgument("sketch: store base outside key range");
    if (!reader.Fits(size, sizeof(uint64_t)))
      return Status::InvalidArgument("sketch: store counts truncated");
    store->base = base;
    store->counts.resize(static_cast<size_t>(size));
    if (!reader.U64s(store->counts.data(), store->counts.size()))
      return Status::InvalidArgument("sketch: store counts truncated");
  }

  if (!reader.U64(&fresh.zero_count_) || !reader.U64(&fresh.count_) ||
      !reader.U64(&fresh.dropped_) || !reader.F64(&fresh.min_) ||
      !reader.F64(&fresh.max_))
    return Status::InvalidArgument("sketch: truncated tail");

  uint64_t sum = fresh.zero_count_;
  for (const Store* store : {&fresh.negative_, &fresh.positive_}) {
    for (uint64_t c : store->counts) {
      if (c > fresh.count_ || sum > fresh.count_ - c)
        return Status::InvalidArgument("sketch: bucket counts exceed total");
      sum += c;
    }
  }
  if (sum != fresh.count_)
    return Status::InvalidArgument("sketch: bucket counts do not sum to total");
  if (fresh.count_ > 0) {
    if (!std::isfinite(fresh.min_) || !std::isfinite(fresh.max_) ||
        fresh.min_ > fresh.max_)
      return Status::InvalidArgument("sketch: invalid min/max");
  } else if (fresh.min_ != 0.0 || fresh.max_ != 0.0) {
    return Status::InvalidArgument("sketch: empty sketch with nonzero extremes");
  }

  *this = std::move(fresh);
  return Status::Ok();
}

}  // namespace otfair::stats
