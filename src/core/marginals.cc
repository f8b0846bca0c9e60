#include "core/marginals.h"

#include <cmath>

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
  if (!(options.bandwidth == 0.0 ||
        (options.bandwidth > 0.0 && std::isfinite(options.bandwidth))))
    return Status::InvalidArgument("KDE bandwidth must be 0 (Silverman) or finite and positive");
  // A constant channel's +-0.5-widened grid at even n_Q <= 12 puts its
  // point mass >= 45 bandwidths of 1e-3 from the two middle points; the
  // grid step keeps the zero-spread bandwidth wide enough.
  const double h = options.bandwidth > 0.0 ? options.bandwidth
                                           : stats::SilvermanBandwidth(samples, grid.step());
  auto kde = stats::GaussianKde::Fit(samples, h);
  if (!kde.ok()) return kde.status();
  // SupportGrid is uniform, which the KDE's grid kernel requires.
  auto pmf = kde->PmfOnGrid(grid.points());
  if (!pmf.ok()) return pmf.status();
  return ot::DiscreteMeasure::Create(grid.points(), std::move(*pmf));
}

}  // namespace otfair::core
