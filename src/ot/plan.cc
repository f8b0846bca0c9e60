#include "ot/plan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/simd.h"
#include "common/status.h"

namespace otfair::ot {

using common::Matrix;
using common::Result;
using common::Status;

double TransportPlan::MarginalError(const std::vector<double>& a,
                                    const std::vector<double>& b) const {
  OTFAIR_CHECK_EQ(coupling.rows(), a.size());
  OTFAIR_CHECK_EQ(coupling.cols(), b.size());
  double err = 0.0;
  std::vector<double> row_sums = coupling.RowSums();
  std::vector<double> col_sums = coupling.ColSums();
  for (size_t i = 0; i < a.size(); ++i) err = std::max(err, std::fabs(row_sums[i] - a[i]));
  for (size_t j = 0; j < b.size(); ++j) err = std::max(err, std::fabs(col_sums[j] - b[j]));
  return err;
}

SparsePlan SparsePlan::FromEntries(std::vector<PlanEntry> entries, size_t rows, size_t cols) {
  for (const PlanEntry& e : entries) {
    OTFAIR_CHECK(e.i < rows && e.j < cols);
  }
  const auto row_major = [](const PlanEntry& a, const PlanEntry& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  };
  // The monotone staircase (and every built-in path) already emits
  // row-major order; detect that in O(nnz) and skip the sort.
  if (!std::is_sorted(entries.begin(), entries.end(), row_major))
    std::sort(entries.begin(), entries.end(), row_major);

  SparsePlan plan;
  plan.rows_ = rows;
  plan.cols_ = cols;
  plan.row_offsets_.assign(rows + 1, 0);
  plan.col_indices_.reserve(entries.size());
  plan.values_.reserve(entries.size());
  size_t last_row = rows;  // sentinel: no entry emitted yet
  for (const PlanEntry& e : entries) {
    if (last_row == e.i && plan.col_indices_.back() == static_cast<uint32_t>(e.j)) {
      // Duplicate (i, j) cell (adjacent after the sort): merge the mass.
      plan.values_.back() += e.mass;
      continue;
    }
    plan.col_indices_.push_back(static_cast<uint32_t>(e.j));
    plan.values_.push_back(e.mass);
    ++plan.row_offsets_[e.i + 1];
    last_row = e.i;
  }
  for (size_t r = 0; r < rows; ++r) plan.row_offsets_[r + 1] += plan.row_offsets_[r];
  return plan;
}

SparsePlan SparsePlan::FromDense(const Matrix& dense, double threshold) {
  SparsePlan plan;
  plan.rows_ = dense.rows();
  plan.cols_ = dense.cols();
  plan.row_offsets_.assign(plan.rows_ + 1, 0);
  size_t count = 0;
  for (size_t r = 0; r < plan.rows_; ++r) {
    const double* row = dense.row(r);
    for (size_t c = 0; c < plan.cols_; ++c) {
      if (row[c] > threshold) ++count;
    }
  }
  plan.col_indices_.reserve(count);
  plan.values_.reserve(count);
  for (size_t r = 0; r < plan.rows_; ++r) {
    const double* row = dense.row(r);
    for (size_t c = 0; c < plan.cols_; ++c) {
      if (row[c] > threshold) {
        plan.col_indices_.push_back(static_cast<uint32_t>(c));
        plan.values_.push_back(row[c]);
      }
    }
    plan.row_offsets_[r + 1] = plan.col_indices_.size();
  }
  return plan;
}

Result<SparsePlan> SparsePlan::FromCsr(size_t rows, size_t cols,
                                       std::vector<size_t> row_offsets,
                                       std::vector<uint32_t> col_indices,
                                       std::vector<double> values) {
  if (rows == 0 || cols == 0) {
    if (rows != 0 || cols != 0 || !col_indices.empty() || !values.empty())
      return Status::InvalidArgument("degenerate CSR shape with entries");
    return SparsePlan();
  }
  if (row_offsets.size() != rows + 1)
    return Status::InvalidArgument("CSR row offsets must have rows + 1 entries");
  if (row_offsets.front() != 0 || row_offsets.back() != col_indices.size() ||
      col_indices.size() != values.size())
    return Status::InvalidArgument("CSR offsets inconsistent with entry arrays");
  bool sorted = true;
  for (size_t r = 0; r < rows; ++r) {
    // Bound every offset before the element loop below indexes with it:
    // a corrupt interior offset must produce a clean error, not an
    // out-of-bounds read.
    if (row_offsets[r] > row_offsets[r + 1] || row_offsets[r + 1] > col_indices.size())
      return Status::InvalidArgument("CSR row offsets must be non-decreasing and within nnz");
    for (size_t t = row_offsets[r]; t < row_offsets[r + 1]; ++t) {
      if (col_indices[t] >= cols) return Status::InvalidArgument("CSR column index out of range");
      if (!(values[t] >= 0.0) || !std::isfinite(values[t]))
        return Status::InvalidArgument("CSR plan values must be non-negative and finite");
      if (t > row_offsets[r] && col_indices[t] <= col_indices[t - 1]) sorted = false;
    }
  }
  SparsePlan plan;
  plan.rows_ = rows;
  plan.cols_ = cols;
  plan.columns_sorted_ = sorted;
  plan.row_offsets_ = std::move(row_offsets);
  plan.col_indices_ = std::move(col_indices);
  plan.values_ = std::move(values);
  return plan;
}

Matrix SparsePlan::ToDense() const {
  Matrix dense(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    double* out = dense.row(r);
    for (size_t t = row_offsets_[r]; t < row_offsets_[r + 1]; ++t)
      out[col_indices_[t]] += values_[t];
  }
  return dense;
}

SparsePlan::RowView SparsePlan::Row(size_t r) const {
  OTFAIR_DCHECK(r < rows_);
  const size_t begin = row_offsets_[r];
  return RowView{col_indices_.data() + begin, values_.data() + begin,
                 row_offsets_[r + 1] - begin};
}

double SparsePlan::RowSum(size_t r) const {
  OTFAIR_DCHECK(r < rows_);
  // The row's values added in order: plan rows hold a handful of values,
  // too few for a vector reduction to pay for its dispatch, and a
  // sequential sum is the same under either kernel table.
  double sum = 0.0;
  for (size_t t = row_offsets_[r]; t < row_offsets_[r + 1]; ++t) sum += values_[t];
  return sum;
}

std::vector<double> SparsePlan::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) sums[r] = RowSum(r);
  return sums;
}

std::vector<double> SparsePlan::ColSums() const {
  std::vector<double> sums(cols_, 0.0);
  if (columns_sorted_) {
    // Columns were bounds-checked at construction and are strictly
    // increasing per row — a single scatter pass with no per-entry
    // validation.
    const size_t count = values_.size();
    for (size_t t = 0; t < count; ++t) sums[col_indices_[t]] += values_[t];
  } else {
    for (size_t t = 0; t < values_.size(); ++t) {
      OTFAIR_CHECK_LT(col_indices_[t], cols_);
      sums[col_indices_[t]] += values_[t];
    }
  }
  return sums;
}

double SparsePlan::Sum() const {
  // The SIMD reduction reassociates across lanes; every caller compares
  // the total against 1 (or a mass floor) under a tolerance.
  return common::simd::Sum(values_.data(), values_.size());
}

SparsePlan SparsePlan::Transposed() const {
  SparsePlan t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_offsets_.assign(cols_ + 1, 0);
  t.col_indices_.resize(values_.size());
  t.values_.resize(values_.size());
  for (uint32_t c : col_indices_) ++t.row_offsets_[c + 1];
  for (size_t r = 0; r < cols_; ++r) t.row_offsets_[r + 1] += t.row_offsets_[r];
  std::vector<size_t> cursor(t.row_offsets_.begin(), t.row_offsets_.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t i = row_offsets_[r]; i < row_offsets_[r + 1]; ++i) {
      const size_t slot = cursor[col_indices_[i]]++;
      t.col_indices_[slot] = static_cast<uint32_t>(r);
      t.values_[slot] = values_[i];
    }
  }
  // Row-major traversal fills each transposed row in increasing source-row
  // order, so when this plan's rows hold strictly increasing (hence
  // unique) columns, the transposed rows do too. An unsorted source may
  // carry duplicate columns, which transpose into duplicate entries —
  // propagate the flag rather than asserting sortedness.
  t.columns_sorted_ = columns_sorted_;
  return t;
}

double SparsePlan::Cost(const Matrix& cost) const {
  OTFAIR_CHECK(cost.rows() == rows_ && cost.cols() == cols_);
  double total = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    const double* crow = cost.row(r);
    for (size_t t = row_offsets_[r]; t < row_offsets_[r + 1]; ++t)
      total += values_[t] * crow[col_indices_[t]];
  }
  return total;
}

double SparsePlan::MaxAbsDiff(const SparsePlan& other) const {
  OTFAIR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double best = 0.0;
  if (columns_sorted_ && other.columns_sorted_) {
    // Merge walk over the two sorted supports of each row.
    for (size_t r = 0; r < rows_; ++r) {
      const RowView a = Row(r);
      const RowView b = other.Row(r);
      size_t i = 0;
      size_t j = 0;
      while (i < a.nnz || j < b.nnz) {
        if (j >= b.nnz || (i < a.nnz && a.cols[i] < b.cols[j])) {
          best = std::max(best, std::fabs(a.values[i]));
          ++i;
        } else if (i >= a.nnz || b.cols[j] < a.cols[i]) {
          best = std::max(best, std::fabs(b.values[j]));
          ++j;
        } else {
          best = std::max(best, std::fabs(a.values[i] - b.values[j]));
          ++i;
          ++j;
        }
      }
    }
    return best;
  }
  return ToDense().MaxAbsDiff(other.ToDense());
}

size_t SparsePlan::MemoryBytes() const {
  return row_offsets_.capacity() * sizeof(size_t) +
         col_indices_.capacity() * sizeof(uint32_t) + values_.capacity() * sizeof(double);
}

SparsePlan TruncateToSparse(const Matrix& dense, double rel_threshold) {
  if (!(rel_threshold > 0.0)) return SparsePlan::FromDense(dense, 0.0);
  const size_t n = dense.rows();
  const size_t m = dense.cols();
  // Pass 1: per-row mass, truncation threshold, and kept-entry count.
  std::vector<double> row_mass(n, 0.0);
  std::vector<double> row_tau(n, 0.0);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const double* row = dense.row(i);
    double mass = 0.0;
    double peak = 0.0;
    for (size_t j = 0; j < m; ++j) {
      mass += row[j];
      if (row[j] > peak) peak = row[j];
    }
    row_mass[i] = mass;
    // Per-row budget: dropping everything below tau loses at most
    // rel_threshold * row_mass, so the refold's column-marginal
    // perturbation is bounded by rel_threshold * total mass. The row's
    // own peak always survives (tau <= peak), so massive rows never
    // empty out.
    double tau = rel_threshold * mass / static_cast<double>(m);
    if (tau > peak) tau = peak;
    row_tau[i] = tau;
    for (size_t j = 0; j < m; ++j) {
      if (row[j] > 0.0 && row[j] >= tau) ++count;
    }
  }
  std::vector<PlanEntry> entries;
  entries.reserve(count);
  // Pass 2: extract survivors and fold each row's dropped mass back
  // proportionally, keeping the row marginal exact (to roundoff).
  for (size_t i = 0; i < n; ++i) {
    const double* row = dense.row(i);
    const size_t first = entries.size();
    double kept = 0.0;
    for (size_t j = 0; j < m; ++j) {
      if (row[j] > 0.0 && row[j] >= row_tau[i]) {
        entries.push_back({i, j, row[j]});
        kept += row[j];
      }
    }
    if (kept > 0.0 && kept != row_mass[i]) {
      const double refold = row_mass[i] / kept;
      for (size_t t = first; t < entries.size(); ++t) entries[t].mass *= refold;
    }
  }
  return SparsePlan::FromEntries(std::move(entries), n, m);
}

}  // namespace otfair::ot
