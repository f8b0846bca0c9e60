#include "stats/quantile_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "common/check.h"

namespace otfair::stats {

using common::Status;

namespace {

/// Magnitudes below this collapse into the zero bucket; above the inverse,
/// into the top bucket. Together with the log-bin geometry this caps the
/// key span (and therefore sketch memory) at a constant.
constexpr double kMinAbs = 1e-12;
constexpr double kMaxAbs = 1e12;
constexpr double kGamma =
    (1.0 + QuantileSketch::kRelativeAccuracy) / (1.0 - QuantileSketch::kRelativeAccuracy);

/// Top mantissa bits that pick a lookup cell inside a binade: 64 cells per
/// binade make every cell narrower than any bucket (a bucket spans a
/// relative width gamma - 1 > 2%), so a cell holds at most one key
/// boundary.
constexpr int kCellBits = 6;
constexpr int kCellShift = 52 - kCellBits;

/// The bucket key by the log formula, before clamping.
double FormulaKey(double x, double inv_log_gamma) {
  return std::ceil(std::log(x) * inv_log_gamma);
}

/// The least positive double whose formula key is >= k. The formula steps
/// up to k where log(x) * inv_log_gamma crosses k - 1, within a few ulps of
/// gamma^(k-1): bracket that point over the bit patterns of positive
/// doubles (which order like the doubles), widening until the bracket
/// holds, then bisect.
double LeastDoubleOfKey(int k, double inv_log_gamma) {
  const double key = static_cast<double>(k);
  const uint64_t guess = std::bit_cast<uint64_t>(std::exp((key - 1.0) / inv_log_gamma));
  uint64_t lo = guess;  // formula key below k
  uint64_t hi = guess;  // formula key k or above
  for (uint64_t step = 16; FormulaKey(std::bit_cast<double>(lo), inv_log_gamma) >= key; step *= 2)
    lo -= step;
  for (uint64_t step = 16; FormulaKey(std::bit_cast<double>(hi), inv_log_gamma) < key; step *= 2)
    hi += step;
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (FormulaKey(std::bit_cast<double>(mid), inv_log_gamma) >= key ? hi : lo) = mid;
  }
  return std::bit_cast<double>(hi);
}

/// The tables KeyOf and AscendingBuckets read, built once per process on
/// first use, so a process that never sketches never builds them.
///
/// The key of a magnitude x is the log formula clamp(ceil(log(x) *
/// inv_log_gamma), min_key, max_key). The tables assume `log` is monotone:
/// then the formula is a non-decreasing step function of x, described
/// exactly by the least double of each key (found by bisection against the
/// formula itself), and key(x) = min_key + #{k > min_key : least(k) <= x}
/// for every double x. The cell table holds that count at each cell's
/// least double; a cell spans at most one boundary, so one comparison
/// finishes a lookup.
struct KeyTables {
  int min_key = 0;
  int max_key = 0;
  /// next_lower[key - min_key]: the least double of key + 1 (+inf for
  /// max_key).
  std::vector<double> next_lower;
  /// Cell number (bits >> kCellShift) of kMinAbs's cell; cells run from
  /// there through kMaxAbs's cell.
  uint64_t first_cell = 0;
  /// cell_key[cell - first_cell]: the key of the cell's least double.
  std::vector<int16_t> cell_key;
  /// bucket_value[key - min_key]: the value estimate of key's bucket, the
  /// midpoint (in the relative sense) of (gamma^{k-1}, gamma^k], whose
  /// relative error is at most alpha for any value in the bucket.
  std::vector<double> bucket_value;
};

KeyTables BuildKeyTables() {
  KeyTables tables;
  const double inv_log_gamma = 1.0 / std::log(kGamma);
  tables.min_key = static_cast<int>(FormulaKey(kMinAbs, inv_log_gamma));
  tables.max_key = static_cast<int>(FormulaKey(kMaxAbs, inv_log_gamma));
  for (int k = tables.min_key + 1; k <= tables.max_key; ++k) {
    tables.next_lower.push_back(LeastDoubleOfKey(k, inv_log_gamma));
    OTFAIR_CHECK(tables.next_lower.size() < 2 ||
                 tables.next_lower[tables.next_lower.size() - 2] < tables.next_lower.back())
        << "key boundaries must ascend (log is not monotone?)";
  }
  tables.next_lower.push_back(std::numeric_limits<double>::infinity());
  for (int k = tables.min_key; k <= tables.max_key; ++k)
    tables.bucket_value.push_back(2.0 * std::pow(kGamma, k) / (kGamma + 1.0));

  tables.first_cell = std::bit_cast<uint64_t>(kMinAbs) >> kCellShift;
  const uint64_t last_cell = std::bit_cast<uint64_t>(kMaxAbs) >> kCellShift;
  size_t below = 0;  // boundaries at or below the current cell's least double
  for (uint64_t cell = tables.first_cell; cell <= last_cell; ++cell) {
    const double least = std::bit_cast<double>(cell << kCellShift);
    const double greatest = std::bit_cast<double>(((cell + 1) << kCellShift) - 1);
    while (tables.next_lower[below] <= least) ++below;
    tables.cell_key.push_back(static_cast<int16_t>(tables.min_key + static_cast<int>(below)));
    OTFAIR_CHECK(below + 1 >= tables.next_lower.size() ||
                 tables.next_lower[below + 1] > greatest)
        << "a lookup cell spans two key boundaries";
  }
  return tables;
}

const KeyTables& Tables() {
  static const KeyTables tables = BuildKeyTables();
  return tables;
}

/// KeyOf's lookup in built tables.
inline int LookupKey(const KeyTables& tables, double abs_value) {
  const uint64_t cell = (std::bit_cast<uint64_t>(abs_value) >> kCellShift) - tables.first_cell;
  if (cell >= tables.cell_key.size()) return abs_value < kMinAbs ? tables.min_key : tables.max_key;
  const int key = tables.cell_key[cell];
  return key + (abs_value >= tables.next_lower[static_cast<size_t>(key - tables.min_key)] ? 1 : 0);
}

}  // namespace

int QuantileSketch::KeyOf(double abs_value) { return LookupKey(Tables(), abs_value); }

void QuantileSketch::Store::Grow(int key, uint64_t n) {
  if (counts.empty()) {
    base = key;
    counts.push_back(n);
    return;
  }
  if (key < base) {
    counts.insert(counts.begin(), static_cast<size_t>(base - key), 0);
    base = key;
  } else {
    counts.resize(static_cast<size_t>(key - base) + 1, 0);
  }
  counts[static_cast<size_t>(key - base)] += n;
}

uint64_t QuantileSketch::Store::At(int key) const {
  if (key < base || key >= base + static_cast<int>(counts.size())) return 0;
  return counts[static_cast<size_t>(key - base)];
}

void QuantileSketch::Store::Subtract(const Store& earlier) {
  for (size_t i = 0; i < earlier.counts.size(); ++i)
    if (earlier.counts[i] > 0)
      counts[static_cast<size_t>(earlier.base + static_cast<int>(i) - base)] -= earlier.counts[i];
  size_t begin = 0;
  size_t end = counts.size();
  while (begin < end && counts[begin] == 0) ++begin;
  while (end > begin && counts[end - 1] == 0) --end;
  counts.erase(counts.begin() + static_cast<std::ptrdiff_t>(end), counts.end());
  counts.erase(counts.begin(), counts.begin() + static_cast<std::ptrdiff_t>(begin));
  base = counts.empty() ? 0 : base + static_cast<int>(begin);
}

void QuantileSketch::AddRow(QuantileSketch* sketches, const double* values, size_t n) {
  const KeyTables& tables = Tables();
  for (size_t k = 0; k < n; ++k) {
    QuantileSketch& sketch = sketches[k];
    const double x = values[k];
    if (!std::isfinite(x)) {
      ++sketch.dropped_;
      continue;
    }
    if (sketch.count_ == 0) {
      sketch.min_ = x;
      sketch.max_ = x;
    } else {
      sketch.min_ = std::min(sketch.min_, x);
      sketch.max_ = std::max(sketch.max_, x);
    }
    ++sketch.count_;
    const double ax = std::fabs(x);
    if (ax < kMinAbs) {
      ++sketch.zero_count_;
      continue;
    }
    // The store is picked without a branch: in a stream centred near zero
    // the sign is a coin flip.
    Store& store = *(std::signbit(x) ? &sketch.negative_ : &sketch.positive_);
    store.Add(LookupKey(tables, ax), 1);
  }
}

void QuantileSketch::Merge(const QuantileSketch& other) {
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
}

Status QuantileSketch::Subtract(const QuantileSketch& earlier) {
  bool prefix = earlier.count_ <= count_ && earlier.zero_count_ <= zero_count_ &&
                earlier.dropped_ <= dropped_ &&
                (earlier.count_ == 0 || (earlier.min_ >= min_ && earlier.max_ <= max_));
  for (const auto& [mine, theirs] : {std::pair{&negative_, &earlier.negative_},
                                     std::pair{&positive_, &earlier.positive_}})
    for (size_t i = 0; prefix && i < theirs->counts.size(); ++i)
      prefix = theirs->counts[i] <= mine->At(theirs->base + static_cast<int>(i));
  if (!prefix)
    return Status::InvalidArgument("sketch: the earlier sketch is not a prefix of this stream");
  negative_.Subtract(earlier.negative_);
  positive_.Subtract(earlier.positive_);
  zero_count_ -= earlier.zero_count_;
  dropped_ -= earlier.dropped_;
  count_ -= earlier.count_;
  if (count_ == 0) {
    min_ = 0.0;
    max_ = 0.0;
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
  const KeyTables& tables = Tables();
  auto value = [&](const Store& store, size_t i) {
    return tables.bucket_value[static_cast<size_t>(store.base - tables.min_key) + i];
  };
  std::vector<Bucket> buckets;
  buckets.reserve(bucket_count());
  uint64_t cumulative = 0;
  for (size_t i = negative_.counts.size(); i-- > 0;) {
    if (negative_.counts[i] == 0) continue;
    cumulative += negative_.counts[i];
    buckets.push_back({-value(negative_, i), cumulative});
  }
  if (zero_count_ > 0) {
    cumulative += zero_count_;
    buckets.push_back({0.0, cumulative});
  }
  for (size_t i = 0; i < positive_.counts.size(); ++i) {
    if (positive_.counts[i] == 0) continue;
    cumulative += positive_.counts[i];
    buckets.push_back({value(positive_, i), cumulative});
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

void QuantileSketch::Reset() { *this = QuantileSketch(); }

size_t QuantileSketch::bucket_count() const {
  return negative_.counts.size() + positive_.counts.size() + (zero_count_ > 0 ? 1 : 0);
}

void QuantileSketch::SerializeTo(common::ByteWriter& writer) const {
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
  // Validate every field into a fresh sketch before any state is
  // committed.
  QuantileSketch fresh;
  const KeyTables& tables = Tables();
  const size_t key_span = static_cast<size_t>(tables.max_key - tables.min_key) + 1;
  for (Store* store : {&fresh.negative_, &fresh.positive_}) {
    int32_t base = 0;
    uint64_t size = 0;
    if (!reader.I32(&base) || !reader.U64(&size))
      return Status::InvalidArgument("sketch: truncated store header");
    if (size > key_span)
      return Status::InvalidArgument("sketch: store size exceeds key span");
    if (size > 0 &&
        (base < tables.min_key ||
         base + static_cast<int64_t>(size) - 1 > tables.max_key))
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
