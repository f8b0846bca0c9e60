#include "core/marginals.h"

#include <algorithm>

#include "common/status.h"
#include "obs/trace.h"
#include "stats/bandwidth.h"
#include "stats/kde.h"

namespace otfair::core {

using common::Result;
using common::Status;

Result<ot::DiscreteMeasure> InterpolateMarginal(const std::vector<double>& samples,
                                                const SupportGrid& grid,
                                                const MarginalOptions& options) {
  OTFAIR_TRACE_SPAN("marginal_kde");
  if (samples.empty()) return Status::InvalidArgument("empty channel sample");
  double h = options.bandwidth;
  if (!(h > 0.0)) {
    h = stats::SilvermanBandwidth(samples);
    // A zero-spread channel is a point mass, for which Silverman's rule
    // returns a fixed 1e-3. On a coarse grid the point can sit so many of
    // those from both neighbours that every kernel term underflows: a
    // constant channel's +-0.5-widened grid at even n_Q <= 12 puts it >= 45
    // bandwidths from the two middle points. An eighth of the grid step
    // keeps it within 4 bandwidths of one; grids finer than 8e-3 keep 1e-3.
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    if (*lo == *hi) h = std::max(h, grid.step() / 8.0);
  }
  auto kde = stats::GaussianKde::Fit(samples, h);
  if (!kde.ok()) return kde.status();
  // SupportGrid is uniform, which the KDE's grid kernel requires.
  auto pmf = kde->PmfOnGrid(grid.points());
  if (!pmf.ok()) return pmf.status();
  return ot::DiscreteMeasure::Create(grid.points(), std::move(*pmf));
}

}  // namespace otfair::core
