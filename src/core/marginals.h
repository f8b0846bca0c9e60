#ifndef OTFAIR_CORE_MARGINALS_H_
#define OTFAIR_CORE_MARGINALS_H_

#include <vector>

#include "common/result.h"
#include "core/support_grid.h"
#include "ot/measure.h"

namespace otfair::core {

/// Marginal-estimation options for Algorithm 1 line 8.
struct MarginalOptions {
  /// KDE bandwidth; 0 selects Silverman's rule (the paper's choice, Eq. 12),
  /// with a zero-spread channel's bandwidth at least an eighth of the grid
  /// step. Any other value must be finite and positive: a negative, NaN or
  /// infinite bandwidth is InvalidArgument.
  double bandwidth = 0.0;
};

/// Interpolates an empirical channel marginal onto the shared support Q via
/// Gaussian KDE (paper Eq. 11): `p_q ∝ sum_i K(zeta_q - x_i, h)`, returned
/// as a normalized discrete measure on the grid points. Evaluated with the
/// uniform-grid kernel of `stats::GaussianKde::PmfOnGrid` (see its error
/// bound); traced as the `marginal_kde` span.
common::Result<ot::DiscreteMeasure> InterpolateMarginal(const std::vector<double>& samples,
                                                        const SupportGrid& grid,
                                                        const MarginalOptions& options = {});

}  // namespace otfair::core

#endif  // OTFAIR_CORE_MARGINALS_H_
