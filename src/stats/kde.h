#ifndef OTFAIR_STATS_KDE_H_
#define OTFAIR_STATS_KDE_H_

#include <vector>

#include "common/result.h"

namespace otfair::stats {

/// One-dimensional Gaussian kernel density estimator (paper Eqs. 11-12):
///
///     f_hat(x) = (1 / (n h)) * sum_i K((x - x_i) / h),  K = standard normal
///
/// Used to interpolate the empirical (u, s)-conditional feature marginals
/// onto the shared support Q during repair design (Algorithm 1 line 8).
class GaussianKde {
 public:
  /// Fits a KDE to `samples` with explicit bandwidth h > 0.
  static common::Result<GaussianKde> Fit(std::vector<double> samples, double bandwidth);

  /// Fits with Silverman's rule-of-thumb bandwidth (the paper's choice);
  /// `grid_step` is the spacing of the grid the pmf will be taken on (see
  /// SilvermanBandwidth).
  static common::Result<GaussianKde> FitSilverman(std::vector<double> samples,
                                                  double grid_step = 0.0);

  /// Density estimate at x: one exp per sample. The exact reference the
  /// grid kernel below is tested against.
  double Evaluate(double x) const;

  /// Normalized pmf over a UNIFORM grid: `p_q ∝ sum_i K((zeta_q - x_i) / h)`,
  /// exactly the paper's Eq. 11. Requires a non-empty, increasing grid whose
  /// points sit within a few ulps of `lo + q * step` (SupportGrid and the
  /// E-metric grids do); returns InvalidArgument otherwise, and when the
  /// total density underflows to zero (grid far outside the data).
  ///
  /// Uniform-grid kernel: with d = step / h, every sample walks outward
  /// from the two grid points that bracket it, and the term at m steps
  /// from a bracket point at distance z >= 0 (in bandwidths) factors as
  ///
  ///     exp(-(z + m d)^2 / 2) = exp(-z^2 / 2) * exp(-z d)^m * G[m],
  ///     G[m] = exp(-(m d)^2 / 2)  (tabulated once per call),
  ///
  /// so a (sample, grid point) pair costs two multiplies and an add instead
  /// of an exp. The walks are common::simd's `kde_walks` kernel: four
  /// lanes per walk and a sample's two walks in one loop under AVX2,
  /// bit-identical to its scalar entry (which OTFAIR_NO_SIMD selects).
  /// Every factor is <= 1, so no factor overflows or underflows
  /// before the term itself does, whatever step / h is: the walk visits
  /// every grid point whose term is representable. Error bound against
  /// the exact KDE on the same grid, for every entry whose exact density
  /// is >= 1e-290 (below that the exact KDE itself rounds to subnormals):
  ///
  ///     |p_hat - p| <= (1e-12 + 128 * 2^-52 * max(|lo|, |hi|) / h) * p
  ///
  /// The second term is the exact KDE's own sensitivity to few-ulp moves
  /// of the grid points (about 6e-13 on the benchmark's data);
  /// tests/stats/kde_test.cc enforces the bound.
  common::Result<std::vector<double>> PmfOnGrid(const std::vector<double>& grid) const;

  double bandwidth() const { return bandwidth_; }
  size_t sample_size() const { return samples_.size(); }

 private:
  GaussianKde(std::vector<double> samples, double bandwidth)
      : samples_(std::move(samples)), bandwidth_(bandwidth) {}

  std::vector<double> samples_;
  double bandwidth_ = 0.0;
};

}  // namespace otfair::stats

#endif  // OTFAIR_STATS_KDE_H_
