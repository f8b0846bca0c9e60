#ifndef OTFAIR_OT_GEODESIC_H_
#define OTFAIR_OT_GEODESIC_H_

#include <vector>

#include "common/result.h"
#include "ot/measure.h"

namespace otfair::ot {

/// Projects an arbitrary 1-D measure onto a fixed, strictly-increasing grid
/// by splitting each atom's mass between its two neighbouring grid points
/// in proportion to proximity. Interior atoms keep their mass and mean
/// exactly; atoms outside the grid range snap to the nearest end point.
common::Result<DiscreteMeasure> ProjectToGrid(const DiscreteMeasure& measure,
                                              const std::vector<double>& grid);

}  // namespace otfair::ot

#endif  // OTFAIR_OT_GEODESIC_H_
