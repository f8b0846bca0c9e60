#ifndef OTFAIR_OT_BARYCENTER_H_
#define OTFAIR_OT_BARYCENTER_H_

#include <vector>

#include "common/result.h"
#include "ot/measure.h"
#include "ot/sinkhorn.h"

namespace otfair::ot {

/// Wasserstein-2 barycenters of 1-D measures (paper Eq. 7). In one
/// dimension the barycenter of sorted measures mu_s with weights lambda_s
/// has the closed-form quantile function
///
///     F_nu^{-1} = sum_s lambda_s F_s^{-1}
///
/// (weighted quantile averaging; Agueh & Carlier 2011). For two measures
/// with lambdas {1 - t, t} it is the displacement interpolation along the
/// W2 geodesic,
///
///     nu_t = argmin_nu (1 - t) W2²(mu0, nu) + t W2²(mu1, nu),  t in [0, 1],
///
/// and the paper's "fair barycentre" is `t = 0.5`, equidistant from both
/// s-conditionals.
///
/// One sweep computes it for any number of measures. Each measure holds a
/// cursor on its CDF; each step consumes the smallest mass left in the
/// cursors' atoms and emits one atom at the lambda-weighted position,
/// accumulated as lambda_0 x_0 + lambda_1 x_1 + ... in s order, merging
/// coincident positions. Roundoff follows the monotone solver
/// (SolveMonotone1D): a chunk of at most 1e-15 is not emitted, a cursor
/// whose atom has at most 1e-15 left moves on, and the sweep stops when the
/// first measure runs out. Two measures with {1 - t, t} therefore give the
/// atoms of the monotone staircase interpolated at t, bit for bit.

/// The t-barycenter of two measures: the sweep with lambdas {1 - t, t}
/// (and its 1e-15 rule). Unsorted inputs are sorted first. The result has
/// at most n + m - 1 atoms and is returned sorted.
common::Result<DiscreteMeasure> QuantileBarycenter1D(const DiscreteMeasure& mu0,
                                                     const DiscreteMeasure& mu1, double t);

/// The t-barycenter projected onto a fixed grid: atoms of the quantile
/// barycenter are split between their two neighbouring grid points in
/// proportion to proximity (mass- and mean-preserving for interior atoms;
/// atoms outside the grid range snap to the nearest end point). This is how
/// the repair pipeline represents `nu` on the shared interpolated support Q
/// (paper §IV-A2).
common::Result<DiscreteMeasure> QuantileBarycenterOnGrid(const DiscreteMeasure& mu0,
                                                         const DiscreteMeasure& mu1, double t,
                                                         const std::vector<double>& grid);

/// The N-measure barycenter of sorted measures with barycentric weights
/// `lambdas` (non-negative, normalized internally), by the sweep above and
/// its 1e-15 rule. The result has at most sum_s n_s atoms and is returned
/// sorted.
common::Result<DiscreteMeasure> QuantileBarycenter1D(
    const std::vector<DiscreteMeasure>& measures, const std::vector<double>& lambdas);

/// N-measure barycenter projected onto a fixed grid (see the two-measure
/// QuantileBarycenterOnGrid). The designer's step (iii) for every |S|.
common::Result<DiscreteMeasure> QuantileBarycenterOnGrid(
    const std::vector<DiscreteMeasure>& measures, const std::vector<double>& lambdas,
    const std::vector<double>& grid);

/// Options for the general fixed-support entropic barycenter.
struct BregmanBarycenterOptions {
  double epsilon = 0.05;
  size_t max_iterations = 2000;
  double tolerance = 1e-8;
};

/// Fixed-support Wasserstein barycenter of N weighted measures sharing the
/// support `grid`, by iterative Bregman projections (Benamou et al. 2015).
/// `lambdas` are the barycentric weights (non-negative, summing to one after
/// normalization); the two-measure case with lambdas {1-t, t} matches
/// `QuantileBarycenterOnGrid` up to entropic smoothing. Provided both as a
/// general capability and as an independent cross-check of the quantile
/// method.
common::Result<DiscreteMeasure> BregmanBarycenter(
    const std::vector<DiscreteMeasure>& measures, const std::vector<double>& lambdas,
    const std::vector<double>& grid, const BregmanBarycenterOptions& options = {});

}  // namespace otfair::ot

#endif  // OTFAIR_OT_BARYCENTER_H_
