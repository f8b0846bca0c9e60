#include "core/marginals.h"

#include "common/status.h"
#include "obs/trace.h"
#include "stats/kde.h"

namespace otfair::core {

using common::Result;
using common::Status;

Result<ot::DiscreteMeasure> InterpolateMarginal(const std::vector<double>& samples,
                                                const SupportGrid& grid,
                                                const MarginalOptions& options) {
  OTFAIR_TRACE_SPAN("marginal_kde");
  if (samples.empty()) return Status::InvalidArgument("empty channel sample");
  auto kde = options.bandwidth > 0.0
                 ? stats::GaussianKde::Fit(samples, options.bandwidth)
                 : stats::GaussianKde::FitSilverman(samples);
  if (!kde.ok()) return kde.status();
  // SupportGrid is uniform, which the KDE's grid kernel requires.
  auto pmf = kde->PmfOnGrid(grid.points());
  if (!pmf.ok()) return pmf.status();
  return ot::DiscreteMeasure::Create(grid.points(), std::move(*pmf));
}

}  // namespace otfair::core
