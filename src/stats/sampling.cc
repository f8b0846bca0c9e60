#include "stats/sampling.h"

#include <cmath>
#include <limits>

namespace otfair::stats {

using common::Rng;
using common::Status;

void AliasArena::Reserve(size_t rows, size_t total_slots) {
  offsets_.reserve(rows + 1);
  fallback_.reserve(rows);
  slots_.reserve(total_slots);
}

Status AliasArena::AppendRow(const double* weights, const uint32_t* cols,
                             size_t count) {
  const size_t n = count;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = weights[i];
    if (!(w >= 0.0) || !std::isfinite(w))
      return Status::InvalidArgument("weights must be non-negative and finite");
    total += w;
  }
  if (total <= kMassFloor) {
    offsets_.push_back(slots_.size());
    return Status::Ok();
  }

  // Vose's stable construction: partition scaled probabilities into
  // "small" (< 1) and "large" (>= 1) worklists and pair them off. The
  // acceptance probabilities feed Rng::Bernoulli, whose draw *count*
  // depends on degenerate values, so any bit drift here would
  // desynchronize downstream random streams.
  scaled_.resize(n);
  for (size_t i = 0; i < n; ++i)
    scaled_[i] = (weights[i] / total) * static_cast<double>(n);
  small_.clear();
  large_.clear();
  for (size_t i = 0; i < n; ++i) {
    (scaled_[i] < 1.0 ? small_ : large_).push_back(static_cast<uint32_t>(i));
  }

  prob_scratch_.assign(n, 1.0);
  alias_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) alias_scratch_[i] = static_cast<uint32_t>(i);

  while (!small_.empty() && !large_.empty()) {
    const uint32_t s = small_.back();
    small_.pop_back();
    const uint32_t l = large_.back();
    large_.pop_back();
    prob_scratch_[s] = scaled_[s];
    alias_scratch_[s] = l;
    scaled_[l] = (scaled_[l] + scaled_[s]) - 1.0;
    (scaled_[l] < 1.0 ? small_ : large_).push_back(l);
  }
  // Leftovers are numerically 1 (prob_scratch_ starts at 1.0).

  const size_t begin = slots_.size();
  slots_.resize(begin + n);
  for (size_t i = 0; i < n; ++i) {
    slots_[begin + i] = Slot{prob_scratch_[i], cols[i], cols[alias_scratch_[i]]};
  }
  offsets_.push_back(slots_.size());
  return Status::Ok();
}

Status AliasArena::Finish() {
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  const size_t n = rows();
  // Upward sweep: the nearest row with mass at or below each row.
  fallback_.resize(n);
  uint32_t below = kNone;
  for (size_t q = 0; q < n; ++q) {
    if (RowHasMass(q)) below = static_cast<uint32_t>(q);
    fallback_[q] = below;
  }
  if (below == kNone) return Status::FailedPrecondition("no plan row has transportable mass");
  // Downward sweep: an empty row moves to the nearest row with mass above
  // it only when that one is strictly closer.
  uint32_t above = kNone;
  for (size_t q = n; q-- > 0;) {
    if (RowHasMass(q)) {
      above = static_cast<uint32_t>(q);
    } else if (above != kNone && (fallback_[q] == kNone || above - q < q - fallback_[q])) {
      fallback_[q] = above;
    }
  }
  return Status::Ok();
}

std::vector<size_t> SampleCategorical(const std::vector<double>& weights, size_t n, Rng& rng) {
  std::vector<size_t> out;
  out.reserve(n);
  for (size_t k = 0; k < n; ++k) out.push_back(rng.Categorical(weights));
  return out;
}

}  // namespace otfair::stats
