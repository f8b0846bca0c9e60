#ifndef OTFAIR_STATS_SAMPLING_H_
#define OTFAIR_STATS_SAMPLING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"

namespace otfair::stats {

/// Walker/Vose alias tables for O(1) categorical sampling, packed into one
/// arena: the plan-row sampler of both repairers.
///
/// Algorithm 2 of the paper draws, for every archival record, one state from
/// the normalized row of an OT plan (Eq. 15). With torrents of archival
/// data that draw dominates repair cost, so each plan row becomes one alias
/// table: O(row support) setup once, O(1) per record thereafter. Rows are
/// laid out slot-major: every bucket is one contiguous 16-byte Slot
/// carrying the acceptance probability AND both candidate payloads (the
/// target states of the plan row), and all rows share a single arena
/// allocation, so a draw is exactly one slot load after the bucket pick,
/// which the AVX2 transport kernel gathers four at a time
/// (common::simd::Ops::transport).
///
/// A row whose weights total at most kMassFloor is empty (KDE tails can
/// underflow a plan row); Finish() points it at its nearest row with mass,
/// and draws for it read that row instead.
///
/// Determinism contract: a draw consumes one UniformInt (the bucket), then
/// one Bernoulli on the bucket's acceptance probability, which consumes
/// nothing when that probability is 0 or 1. The construction's arithmetic
/// (normalization, then Vose's pairing order) fixes those probabilities bit
/// for bit, and with them every repaired byte; AliasArenaTest pins the draw
/// sequence.
class AliasArena {
 public:
  /// The 16-byte bucket lives in common::simd, whose transport kernels
  /// gather it.
  using Slot = common::simd::AliasSlot;

  /// Rows whose weights total (summed left to right) at most this are empty.
  static constexpr double kMassFloor = 1e-300;

  /// Pre-sizes the arena and its fallback array (rows and total buckets are
  /// both known up front when building from a CSR plan: rows() and nnz()).
  void Reserve(size_t rows, size_t total_slots);

  /// Appends one row from `count` unnormalized weights and their payload
  /// columns. A row totalling at most kMassFloor (count 0 and all-zero rows
  /// included) is appended empty. A negative or non-finite weight is
  /// InvalidArgument and appends nothing.
  common::Status AppendRow(const double* weights, const uint32_t* cols,
                           size_t count);

  /// Fills fallback(): each row with mass maps to itself, each empty row to
  /// its nearest row with mass (the lower one on a tie). Call after the
  /// last AppendRow. FailedPrecondition when no row has mass.
  common::Status Finish();

  size_t rows() const { return offsets_.size() - 1; }
  bool RowHasMass(size_t row) const { return offsets_[row + 1] > offsets_[row]; }
  size_t RowSize(size_t row) const { return offsets_[row + 1] - offsets_[row]; }

  /// Per row, the row its draws read (see Finish()).
  const uint32_t* fallback() const { return fallback_.data(); }

  /// Draws a payload column from row `row`, which must have mass (so pass
  /// fallback()[r] to draw for an arbitrary row r).
  uint32_t SampleCol(size_t row, common::Rng& rng) const {
    return common::simd::SampleAliasCol(slots_.data(), offsets_[row], offsets_[row + 1], rng);
  }

  /// Bucket view for tests.
  const Slot* RowSlots(size_t row) const { return slots_.data() + offsets_[row]; }

  /// The packed arena as simd::TransportChannel reads it: row r holds
  /// slots()[offsets()[r], offsets()[r + 1]).
  const size_t* offsets() const { return offsets_.data(); }
  const Slot* slots() const { return slots_.data(); }

 private:
  std::vector<Slot> slots_;
  std::vector<size_t> offsets_ = {0};
  std::vector<uint32_t> fallback_;
  // Construction scratch, reused across AppendRow calls so building one
  // arena per channel does O(rows) allocations, not O(rows * nnz).
  std::vector<double> scaled_;
  std::vector<double> prob_scratch_;
  std::vector<uint32_t> alias_scratch_;
  std::vector<uint32_t> small_;
  std::vector<uint32_t> large_;
};

/// Draws `n` indices from the pmf by inverse CDF (reference implementation
/// used to cross-check AliasArena in tests).
std::vector<size_t> SampleCategorical(const std::vector<double>& weights, size_t n,
                                      common::Rng& rng);

}  // namespace otfair::stats

#endif  // OTFAIR_STATS_SAMPLING_H_
