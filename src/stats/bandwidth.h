#ifndef OTFAIR_STATS_BANDWIDTH_H_
#define OTFAIR_STATS_BANDWIDTH_H_

#include <vector>

namespace otfair::stats {

/// Kernel bandwidth selectors for 1-D Gaussian KDE.

/// Silverman's rule of thumb (Silverman 1986, the selector prescribed by the
/// paper, Eq. 12):
///
///     h = 0.9 * min(sigma_hat, IQR / 1.34) * n^(-1/5)
///
/// Falls back to `sigma_hat * n^(-1/5)` when the robust scale collapses
/// (e.g. heavily duplicated data), and to a small positive constant, 1e-3,
/// when the sample is degenerate (all values equal), so the returned
/// bandwidth is always strictly positive.
///
/// `grid_step` is the spacing of the uniform grid the KDE will be evaluated
/// on. It only matters for a degenerate sample, a point mass: on a coarse
/// grid the point can sit so many 1e-3 bandwidths from both neighbouring
/// grid points that every kernel term underflows. Its bandwidth is
/// therefore at least `grid_step / 8`, which keeps the point within 4
/// bandwidths of one; grids finer than 8e-3, and the default 0, keep 1e-3.
double SilvermanBandwidth(const std::vector<double>& samples, double grid_step = 0.0);

/// Scott's rule: `h = sigma_hat * n^(-1/5)`; provided for ablations.
double ScottBandwidth(const std::vector<double>& samples);

}  // namespace otfair::stats

#endif  // OTFAIR_STATS_BANDWIDTH_H_
