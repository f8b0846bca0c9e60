#include "common/matrix.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <sstream>

namespace otfair::common {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  const size_t cols = rows[0].size();
  // Storage is allocated once up front; each row is a single contiguous
  // copy into it (no per-element indexed stores).
  Matrix m(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    OTFAIR_CHECK_EQ(rows[r].size(), cols) << "ragged row " << r;
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::RowVector(size_t r) const {
  OTFAIR_CHECK_LT(r, rows_);
  return std::vector<double>(row(r), row(r) + cols_);
}

std::vector<double> Matrix::ColVector(size_t c) const {
  OTFAIR_CHECK_LT(c, cols_);
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

double Matrix::Sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

// Both sums add in index order (a row left to right, a column top to
// bottom), so they do not depend on the build or the kernel table.
std::vector<double> Matrix::RowSums() const {
  std::vector<double> sums(rows_);
  for (size_t r = 0; r < rows_; ++r) sums[r] = std::accumulate(row(r), row(r) + cols_, 0.0);
  return sums;
}

std::vector<double> Matrix::ColSums() const {
  // Row-major streaming: each row adds into every column's running sum.
  std::vector<double> sums(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* values = row(r);
    for (size_t c = 0; c < cols_; ++c) sums[c] += values[c];
  }
  return sums;
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

double Matrix::Dot(const Matrix& other) const {
  OTFAIR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double total = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) total += data_[i] * other.data_[i];
  return total;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  OTFAIR_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      const double* brow = other.row(k);
      double* orow = out.row(r);
      for (size_t c = 0; c < other.cols_; ++c) orow[c] += a * brow[c];
    }
  }
  return out;
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  OTFAIR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double best = 0.0;
  for (size_t i = 0; i < data_.size(); ++i)
    best = std::max(best, std::fabs(data_[i] - other.data_[i]));
  return best;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace otfair::common
