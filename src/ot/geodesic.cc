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
  // Cursor over the cells [grid[hi - 1], grid[hi]). A barycentre's atoms
  // ascend, so one forward sweep finds every cell; an atom below the
  // cursor's cell restarts with a binary search. Either way hi is the
  // first grid point above x, as upper_bound gives it.
  size_t hi = 1;
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
    if (x < grid[hi - 1]) {
      hi = static_cast<size_t>(std::upper_bound(grid.begin(), grid.end(), x) - grid.begin());
    } else {
      while (grid[hi] <= x) ++hi;
    }
    const size_t lo = hi - 1;
    const double frac = (x - grid[lo]) / (grid[hi] - grid[lo]);
    weights[lo] += m * (1.0 - frac);
    weights[hi] += m * frac;
  }
  return DiscreteMeasure::Create(grid, std::move(weights));
}

}  // namespace otfair::ot
