#ifndef OTFAIR_CORE_GEOMETRIC_H_
#define OTFAIR_CORE_GEOMETRIC_H_

#include <memory>

#include "common/result.h"
#include "data/dataset.h"
#include "ot/solver.h"

namespace otfair::core {

/// Options for the geometric (on-sample) repair baseline.
struct GeometricOptions {
  /// Geodesic position t (paper Eqs. 8-9) for the binary |S| = 2 case;
  /// 0.5 meets both classes at the fair barycentre, matching the
  /// distributional repair's default target. Ignored when `lambdas` is
  /// set.
  double t = 0.5;
  /// Barycentric class weights for the multi-group extension (one per s
  /// level, normalized internally). Empty selects {1 - t, t} for |S| = 2
  /// and uniform weights otherwise.
  std::vector<double> lambdas;
  /// Minimum rows per (u, s) group.
  size_t min_group_size = 2;
  /// OT backend for the empirical coupling pi* between the s-conditional
  /// samples. Null means `ot::DefaultSolver()` (monotone — exact here and
  /// O(n)); injecting `ot::MakeSolver("exact")` or "sinkhorn" reproduces
  /// the baseline under alternative solvers.
  std::shared_ptr<const ot::Solver> solver;
};

/// The geometric OT repair of Del Barrio et al. (ICML 2019), applied per
/// (u, k) channel as in paper §III-B — the baseline Tables I and II compare
/// against:
///
///     x'_{0,i} = (1 - t) x_{0,i} + n_0 t     * sum_j pi*_{ij} x_{1,j}   (Eq. 8)
///     x'_{1,j} = n_1 (1 - t) * sum_i pi*_{ij} x_{0,i} + t x_{1,j}       (Eq. 9)
///
/// with pi* the optimal coupling between the *empirical* s-conditional
/// measures of the research data (computed here by the 1-D monotone
/// solver, which is exact for the squared-Euclidean cost). For any number
/// of classes the same construction moves every record toward the
/// lambda-weighted empirical barycenter:
///
///     x'_{s,i} = lambda_s x_{s,i}
///              + sum_{s' != s} (n_s lambda_{s'}) sum_j pi*^{s->s'}_{ij} x_{s',j}
///
/// with the foreign classes s' added in ascending order. At |S| = 2 with
/// lambdas {1 - t, t} this is Eqs. 8-9 term for term: the same code at
/// every |S|.
///
/// This repair is defined point-wise on the research sample, so — as the
/// paper stresses — it cannot repair off-sample (archival) points; it only
/// returns a repaired copy of `research`.
common::Result<data::Dataset> GeometricRepairDataset(const data::Dataset& research,
                                                     const GeometricOptions& options = {});

}  // namespace otfair::core

#endif  // OTFAIR_CORE_GEOMETRIC_H_
