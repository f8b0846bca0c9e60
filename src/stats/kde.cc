#include "stats/kde.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/simd.h"
#include "common/status.h"
#include "stats/bandwidth.h"

namespace otfair::stats {

using common::Result;
using common::Status;

namespace {

// exp(-z^2 / 2) rounds to exactly 0.0 for |z| > 38.61 (past the smallest
// subnormal), so a walk can stop at this distance without dropping a term.
constexpr double kZeroBeyond = 38.7;

// How far a grid point may sit from lo + q * step and still count as
// uniform: a few ulps of the grid's magnitude, the rounding either grid
// formula leaves.
constexpr double kUniformUlps = 16.0;

// Number of walk steps m >= 0 whose term exp(-(z + m d)^2 / 2) can be
// non-zero, capped at the `room` grid points left in that direction. A z
// rounded a hair below 0 counts as 0, so no walk outruns the G table.
size_t WalkLength(double z, double d, size_t room) {
  if (!(z <= kZeroBeyond)) return 0;
  z = std::max(z, 0.0);
  const double last = (kZeroBeyond - z) / d;  // largest useful m
  return last >= static_cast<double>(room) ? room : static_cast<size_t>(last) + 1;
}

}  // namespace

Result<GaussianKde> GaussianKde::Fit(std::vector<double> samples, double bandwidth) {
  if (samples.empty()) return Status::InvalidArgument("KDE needs at least one sample");
  if (!(bandwidth > 0.0)) return Status::InvalidArgument("bandwidth must be positive");
  for (double x : samples) {
    if (!std::isfinite(x)) return Status::InvalidArgument("KDE samples must be finite");
  }
  return GaussianKde(std::move(samples), bandwidth);
}

Result<GaussianKde> GaussianKde::FitSilverman(std::vector<double> samples, double grid_step) {
  if (samples.empty()) return Status::InvalidArgument("KDE needs at least one sample");
  const double h = SilvermanBandwidth(samples, grid_step);
  return Fit(std::move(samples), h);
}

double GaussianKde::Evaluate(double x) const {
  const double inv_h = 1.0 / bandwidth_;
  double acc = 0.0;
  for (double xi : samples_) {
    const double z = (x - xi) * inv_h;
    acc += std::exp(-0.5 * z * z);
  }
  const double norm =
      1.0 / (static_cast<double>(samples_.size()) * bandwidth_ * std::sqrt(2.0 * std::numbers::pi));
  return acc * norm;
}

Result<std::vector<double>> GaussianKde::PmfOnGrid(const std::vector<double>& grid) const {
  if (grid.empty()) return Status::InvalidArgument("empty grid");
  const double h = bandwidth_;
  const size_t nq = grid.size();
  std::vector<double> pmf(nq, 0.0);
  if (nq == 1) {
    for (double x : samples_) {
      const double z = (grid[0] - x) / h;
      pmf[0] += std::exp(-0.5 * z * z);
    }
  } else {
    const double lo = grid.front();
    const double step = (grid.back() - lo) / static_cast<double>(nq - 1);
    if (!(step > 0.0) || !std::isfinite(step))
      return Status::InvalidArgument("KDE grid must be increasing and finite");
    const double slack = kUniformUlps * std::numeric_limits<double>::epsilon() *
                         std::max(std::fabs(lo), std::fabs(grid.back()));
    for (size_t q = 0; q < nq; ++q) {
      if (!(std::fabs(grid[q] - (lo + static_cast<double>(q) * step)) <= slack))
        return Status::InvalidArgument("KDE grid must be uniform");
    }

    const double d = step / h;
    std::vector<double> G(WalkLength(0.0, d, nq));
    G[0] = 1.0;  // explicit: 0 * d is NaN when d overflows
    for (size_t m = 1; m < G.size(); ++m) {
      const double md = static_cast<double>(m) * d;
      G[m] = std::exp(-0.5 * md * md);
    }
    const auto walks = common::simd::Active().kde_walks;
    for (double x : samples_) {
      // Bracket x: right walk from the first grid point at or above x,
      // left walk from the one below it. Points outside [lo, hi] walk
      // only one way.
      const double t = (x - lo) / step;
      size_t right = 0;
      if (t > static_cast<double>(nq - 1)) {
        right = nq;
      } else if (t > 0.0) {
        right = static_cast<size_t>(std::ceil(t));
      }
      common::simd::KdeWalk right_walk;
      common::simd::KdeWalk left_walk;
      if (right < nq) {
        const double z = (grid[right] - x) / h;
        right_walk = {std::exp(-0.5 * z * z), std::exp(-z * d), WalkLength(z, d, nq - right),
                      &pmf[right]};
      }
      if (right > 0) {
        const double z = (x - grid[right - 1]) / h;
        left_walk = {std::exp(-0.5 * z * z), std::exp(-z * d), WalkLength(z, d, right),
                     &pmf[right - 1]};
      }
      walks(right_walk, left_walk, G.data());
    }
  }
  double total = 0.0;
  for (double p : pmf) total += p;
  if (!(total > 0.0))
    return Status::InvalidArgument("KDE mass underflowed on grid (grid outside data range?)");
  for (double& p : pmf) p /= total;
  return pmf;
}

}  // namespace otfair::stats
