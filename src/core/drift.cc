#include "core/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace otfair::core {

using common::Result;
using common::Status;

std::string DriftReport::ToString() const {
  std::ostringstream os;
  os << (drifted ? "DRIFT DETECTED" : "stationary")
     << "  worst W1=" << common::FormatDouble(worst_w1, 4)
     << "  worst out-of-range=" << common::FormatDouble(worst_out_of_range, 4) << "\n";
  for (const ChannelDrift& c : channels) {
    os << "  (u=" << c.u << ", s=" << c.s << ", k=" << c.k << ") n=" << c.count
       << "  W1=" << common::FormatDouble(c.w1_normalized, 4)
       << "  oor=" << common::FormatDouble(c.out_of_range_rate, 4) << "\n";
  }
  return os.str();
}

Result<DriftReport> JudgeDrift(const RepairPlanSet& plans,
                               const std::vector<stats::QuantileSketch>& sketches,
                               const DriftOptions& options) {
  if (options.min_count == 0) return Status::InvalidArgument("min_count must be positive");
  const size_t dim = plans.dim();
  const size_t s_levels = plans.s_levels();
  const size_t u_levels = plans.u_levels();
  if (sketches.size() != u_levels * s_levels * dim)
    return Status::InvalidArgument("drift: " + std::to_string(sketches.size()) +
                                   " sketches for " + std::to_string(u_levels * s_levels * dim) +
                                   " plan channels");
  DriftReport report;
  report.channels.reserve(sketches.size());
  std::vector<double> probes;
  for (size_t u = 0; u < u_levels; ++u) {
    for (size_t s = 0; s < s_levels; ++s) {
      for (size_t k = 0; k < dim; ++k) {
        const ChannelPlan& channel = plans.At(static_cast<int>(u), k);
        const stats::QuantileSketch& sketch = sketches[(u * s_levels + s) * dim + k];
        ChannelDrift drift;
        drift.u = static_cast<int>(u);
        drift.s = static_cast<int>(s);
        drift.k = k;
        drift.count = sketch.count();
        if (drift.count > 0) {
          // One ascending sweep: the mass below lo, the CDF at the midpoint
          // between states i and i+1 (every value below it bins to a state
          // <= i; out-of-range mass clamps into the end states), the CDF
          // at hi.
          const std::vector<double>& points = channel.grid.points();
          const size_t n = points.size();
          probes.resize(n + 1);
          probes[0] = std::nextafter(points.front(), -std::numeric_limits<double>::infinity());
          for (size_t i = 0; i + 1 < n; ++i) probes[i + 1] = 0.5 * (points[i] + points[i + 1]);
          probes[n] = points.back();
          const std::vector<double> cdf = sketch.Cdfs(probes);
          drift.out_of_range_rate = cdf[0] + (1.0 - cdf[n]);
          // W1 between pmfs on a shared 1-D grid = step * sum_q |CDF gap|.
          double gap_sum = 0.0;
          double cum_design = 0.0;
          for (size_t i = 0; i + 1 < n; ++i) {
            cum_design += channel.marginal[s].weight_at(i);
            gap_sum += std::fabs(cdf[i + 1] - cum_design);
          }
          const double span = channel.grid.hi() - channel.grid.lo();
          drift.w1_normalized = span > 0.0 ? channel.grid.step() * gap_sum / span : 0.0;
        }
        if (drift.count >= options.min_count) {
          report.worst_w1 = std::max(report.worst_w1, drift.w1_normalized);
          report.worst_out_of_range =
              std::max(report.worst_out_of_range, drift.out_of_range_rate);
          if (drift.w1_normalized > options.w1_threshold ||
              drift.out_of_range_rate > options.out_of_range_threshold) {
            report.drifted = true;
          }
        }
        report.channels.push_back(drift);
      }
    }
  }
  return report;
}

}  // namespace otfair::core
