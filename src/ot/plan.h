#ifndef OTFAIR_OT_PLAN_H_
#define OTFAIR_OT_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"

namespace otfair::ot {

/// One atom of a sparse transport plan: move `mass` from source atom `i` to
/// target atom `j`.
struct PlanEntry {
  size_t i;
  size_t j;
  double mass;
};

/// A Kantorovich coupling between two discrete measures, plus the achieved
/// transport objective `<C, pi>` (paper Eq. 5/6).
///
/// The coupling is stored densely (n x m); optimal plans are sparse (at most
/// n + m - 1 non-zeros for exact solvers) and `SparsePlan::FromDense`
/// extracts the non-zero entries.
struct TransportPlan {
  common::Matrix coupling;
  double cost = 0.0;

  /// Largest violation of the two marginal constraints against `a` (rows)
  /// and `b` (columns); exact solvers should report ~1e-12 here.
  double MarginalError(const std::vector<double>& a, const std::vector<double>& b) const;
};

/// A transport plan in CSR (compressed sparse row) form — the canonical
/// plan representation of the repair pipeline.
///
/// Every plan the system produces is near-diagonally sparse: the monotone
/// 1-D solver emits at most n + m - 1 staircase entries, the exact
/// solver's flow decomposition is similarly thin, and entropic Sinkhorn
/// couplings decay as exp(-c/eps) outside a band. Storing plans as CSR
/// makes the per-channel artifacts O(nnz) instead of O(n_Q^2) in both
/// memory and every downstream scan (repair-table construction, marginal
/// validation, serialization).
///
/// Layout: `row_offsets()` has rows()+1 entries; row r's support occupies
/// positions [row_offsets()[r], row_offsets()[r+1]) of `col_indices()` /
/// `values()`. All construction paths validate column bounds; entries
/// produced by `FromEntries` / `FromDense` / `TruncateToSparse` have
/// strictly increasing columns within each row (`columns_sorted()`).
class SparsePlan {
 public:
  /// Empty 0 x 0 plan.
  SparsePlan() = default;

  /// Contiguous view of one row's support.
  struct RowView {
    const uint32_t* cols = nullptr;
    const double* values = nullptr;
    size_t nnz = 0;
  };

  /// Builds a rows x cols CSR plan from triplet entries. Entries are
  /// sorted row-major (an O(nnz) check skips the sort for pre-sorted
  /// input, e.g. the monotone staircase) and duplicates of the same
  /// (i, j) cell are merged. CHECK-fails on out-of-range indices.
  static SparsePlan FromEntries(std::vector<PlanEntry> entries, size_t rows, size_t cols);

  /// Extracts entries strictly above `threshold` from a dense coupling.
  static SparsePlan FromDense(const common::Matrix& dense, double threshold = 0.0);

  /// Builds from raw CSR arrays, validating shape invariants (offset
  /// monotonicity, bounds, final offset == nnz). The deserialization
  /// entry point.
  static common::Result<SparsePlan> FromCsr(size_t rows, size_t cols,
                                            std::vector<size_t> row_offsets,
                                            std::vector<uint32_t> col_indices,
                                            std::vector<double> values);

  /// Densifies into a rows() x cols() coupling matrix.
  common::Matrix ToDense() const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }
  bool empty() const { return rows_ == 0 && cols_ == 0; }
  /// True when every row's column indices are strictly increasing (all
  /// built-in construction paths guarantee it; `FromCsr` detects it).
  bool columns_sorted() const { return columns_sorted_; }

  RowView Row(size_t r) const;
  /// Mass of row r, its values added in order: no vector reduction, so the
  /// sum does not depend on the kernel table.
  double RowSum(size_t r) const;

  /// Per-row mass (length rows()), each row summed as RowSum does; O(nnz).
  std::vector<double> RowSums() const;
  /// Per-column mass (length cols()); O(nnz). Rows with sorted, bounds-
  /// checked-at-construction columns take a short-circuit scatter with no
  /// per-entry validation.
  std::vector<double> ColSums() const;
  /// Total transported mass.
  double Sum() const;

  /// Transposed copy (CSC of this plan, re-expressed as CSR); O(nnz).
  SparsePlan Transposed() const;

  /// Transport objective <C, pi> under a dense rows() x cols() cost.
  double Cost(const common::Matrix& cost) const;

  /// Largest element-wise |a_ij - b_ij| against another plan of the same
  /// shape, treating structural zeros as 0.0 (patterns may differ).
  double MaxAbsDiff(const SparsePlan& other) const;

  /// Resident bytes of the CSR arrays (the per-channel memory the bench
  /// trajectory tracks).
  size_t MemoryBytes() const;

  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }
  /// Mutable values (pattern is fixed); used by tests to perturb mass and
  /// by the Sinkhorn truncation refold.
  std::vector<double>& mutable_values() { return values_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  bool columns_sorted_ = true;
  std::vector<size_t> row_offsets_;  // rows_ + 1 when rows_ > 0
  std::vector<uint32_t> col_indices_;
  std::vector<double> values_;
};

/// CSR extraction with epsilon-aware truncation for entropic plans: row i
/// keeps entries >= rel_threshold * row_mass / cols (its own maximum is
/// always kept) and the dropped mass is folded back proportionally onto
/// the kept entries, so row marginals are preserved to roundoff and
/// column marginals to rel_threshold * total mass. A non-positive
/// rel_threshold keeps every strictly positive entry.
SparsePlan TruncateToSparse(const common::Matrix& dense, double rel_threshold);

}  // namespace otfair::ot

#endif  // OTFAIR_OT_PLAN_H_
