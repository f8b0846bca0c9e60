#ifndef OTFAIR_STATS_SAMPLING_H_
#define OTFAIR_STATS_SAMPLING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/simd.h"

namespace otfair::stats {

/// Walker/Vose alias table for O(1) categorical sampling.
///
/// Algorithm 2 of the paper draws, for every archival record, one state from
/// the normalized row of an OT plan (Eq. 15). With torrents of archival
/// data that draw dominates repair cost, so the repairer precomputes one
/// alias table per plan row: O(n_Q) setup once, O(1) per record thereafter.
class AliasTable {
 public:
  /// Builds a table from unnormalized, non-negative weights (at least one
  /// strictly positive).
  static common::Result<AliasTable> Build(const std::vector<double>& weights);

  /// As above, from a raw pointer + length — the repair-table hot path
  /// builds one table per CSR plan row and this overload reads the row's
  /// value span in place instead of copying it into a fresh vector.
  static common::Result<AliasTable> Build(const double* weights, size_t count);

  /// Draws an index in [0, size()) with probability proportional to the
  /// original weights. Consumes one uniform and one Bernoulli from `rng`.
  size_t Sample(common::Rng& rng) const;

  size_t size() const { return prob_.size(); }

  /// Reconstructed sampling probability of index i (for tests).
  double Probability(size_t i) const;

 private:
  AliasTable(std::vector<double> prob, std::vector<size_t> alias, std::vector<double> pmf)
      : prob_(std::move(prob)), alias_(std::move(alias)), pmf_(std::move(pmf)) {}

  std::vector<double> prob_;    // acceptance probability per bucket
  std::vector<size_t> alias_;   // fallback index per bucket
  std::vector<double> pmf_;     // normalized input, kept for Probability()
};

/// A packed arena of Walker/Vose alias tables, one per "row", laid out
/// slot-major: every bucket of a row is one contiguous 16-byte Slot
/// carrying the acceptance probability AND both candidate payloads, and
/// all rows share a single arena allocation.
///
/// This is the batch-repair replacement for a vector<AliasTable>: the
/// per-table layout (three separate heap vectors per row) costs two or
/// three dependent cache misses per draw once the channel count grows —
/// measured as a ~22% repair-throughput loss going from K=2 to K=4
/// feature channels. The arena makes a draw exactly one slot load after
/// the bucket pick, which the AVX2 transport kernel gathers four at a
/// time (common::simd::Ops::transport).
///
/// Determinism contract: construction replicates AliasTable::Build's
/// arithmetic exactly (same normalization and Vose pairing order), and
/// SampleCol consumes the generator exactly like AliasTable::Sample (one
/// UniformInt, then one Bernoulli on a bit-identical probability — which
/// for degenerate probabilities consumes nothing, so even the *count* of
/// draws matches). Swapping a table for an arena row cannot change any
/// downstream random stream.
class AliasArena {
 public:
  /// The 16-byte bucket lives in common::simd, whose transport kernels
  /// gather it.
  using Slot = common::simd::AliasSlot;

  /// Pre-sizes the arena (rows and total buckets are both known up front
  /// when building from a CSR plan: rows() and nnz()).
  void Reserve(size_t rows, size_t total_slots);

  /// Appends one row built from unnormalized non-negative weights (at
  /// least one strictly positive) and their payload columns.
  common::Status AppendRow(const double* weights, const uint32_t* cols,
                           size_t count);

  /// Appends a row with no buckets (a zero-mass plan row; the caller's
  /// fallback machinery must redirect draws elsewhere).
  void AppendEmptyRow();

  size_t rows() const { return offsets_.size() - 1; }
  bool RowHasMass(size_t row) const { return offsets_[row + 1] > offsets_[row]; }
  size_t RowSize(size_t row) const { return offsets_[row + 1] - offsets_[row]; }

  /// Draws a payload column from row `row` (which must have mass). RNG
  /// consumption is identical to AliasTable::Sample on the same weights.
  uint32_t SampleCol(size_t row, common::Rng& rng) const {
    return common::simd::SampleAliasCol(slots_.data(), offsets_[row], offsets_[row + 1], rng);
  }

  /// Bucket view for tests (parity against AliasTable).
  const Slot* RowSlots(size_t row) const { return slots_.data() + offsets_[row]; }

  /// The packed arena as simd::TransportChannel reads it: row r holds
  /// slots()[offsets()[r], offsets()[r + 1]).
  const size_t* offsets() const { return offsets_.data(); }
  const Slot* slots() const { return slots_.data(); }

 private:
  std::vector<Slot> slots_;
  std::vector<size_t> offsets_ = {0};
  // Construction scratch, reused across AppendRow calls so building one
  // arena per channel does O(rows) allocations, not O(rows * nnz).
  std::vector<double> scaled_;
  std::vector<double> prob_scratch_;
  std::vector<uint32_t> alias_scratch_;
  std::vector<uint32_t> small_;
  std::vector<uint32_t> large_;
};

/// Draws `n` indices from the pmf by inverse CDF (reference implementation
/// used to cross-check AliasTable in tests).
std::vector<size_t> SampleCategorical(const std::vector<double>& weights, size_t n,
                                      common::Rng& rng);

}  // namespace otfair::stats

#endif  // OTFAIR_STATS_SAMPLING_H_
