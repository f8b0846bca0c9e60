#include "ot/geodesic.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace otfair::ot {

using common::Result;
using common::Status;

Result<DiscreteMeasure> ProjectToGrid(const DiscreteMeasure& measure,
                                      const std::vector<double>& grid) {
  if (grid.empty()) return Status::InvalidArgument("empty grid");
  for (size_t i = 1; i < grid.size(); ++i) {
    if (!(grid[i] > grid[i - 1]))
      return Status::InvalidArgument("grid must be strictly increasing");
  }

  std::vector<double> weights(grid.size(), 0.0);
  for (size_t a = 0; a < measure.size(); ++a) {
    const double x = measure.support_at(a);
    const double m = measure.weight_at(a);
    if (m <= 0.0) continue;
    if (x <= grid.front()) {
      weights.front() += m;
      continue;
    }
    if (x >= grid.back()) {
      weights.back() += m;
      continue;
    }
    // Locate the cell [grid[j], grid[j+1]) containing x.
    const auto it = std::upper_bound(grid.begin(), grid.end(), x);
    const size_t hi = static_cast<size_t>(it - grid.begin());
    const size_t lo = hi - 1;
    const double frac = (x - grid[lo]) / (grid[hi] - grid[lo]);
    weights[lo] += m * (1.0 - frac);
    weights[hi] += m * frac;
  }
  return DiscreteMeasure::Create(grid, std::move(weights));
}

}  // namespace otfair::ot
