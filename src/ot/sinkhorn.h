#ifndef OTFAIR_OT_SINKHORN_H_
#define OTFAIR_OT_SINKHORN_H_

#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "ot/plan.h"

namespace otfair::ot {

/// Options for entropy-regularized OT (Cuturi 2013; Sinkhorn-Knopp 1967).
struct SinkhornOptions {
  /// Entropic regularization strength. Smaller -> closer to the exact plan,
  /// but slower convergence.
  double epsilon = 0.05;
  /// Maximum Sinkhorn iterations before giving up.
  size_t max_iterations = 10000;
  /// Converged when the worst marginal violation falls below this.
  double tolerance = 1e-9;
  /// Mass-relative truncation applied when the plan is materialized as a
  /// `SparsePlan` (the Solver::Solve1DSparse path): row i drops entries
  /// below `plan_truncation * row_mass / n` and folds the dropped mass
  /// back proportionally, so row marginals stay exact (to roundoff) and
  /// column marginals move by at most `plan_truncation` * total mass —
  /// well inside the default solver tolerance. The entropic kernel decays
  /// as exp(-c/epsilon), so the surviving band narrows as epsilon shrinks
  /// ("epsilon-aware"): the threshold is relative, not absolute, and
  /// adapts to however much the plan has concentrated. Non-positive
  /// disables truncation (every positive entry is kept). Dense `Solve`
  /// results are never truncated.
  double plan_truncation = 1e-12;
};

/// Result of a Sinkhorn solve: the regularized plan, its *unregularized*
/// transport objective `<C, pi>`, iterations used and convergence flag.
struct SinkhornResult {
  TransportPlan plan;
  size_t iterations = 0;
  bool converged = false;
};

/// Solves entropy-regularized OT between weight vectors `a`, `b` under
/// ground cost `cost`:
///
///     pi_eps = argmin <C, pi> - eps * H(pi)  s.t.  pi in Pi(a, b)
///
/// by Sinkhorn-Knopp matrix scaling. This is the O(n^2 / eps^2) alternative
/// the paper cites (§IV-A1, refs [33]-[35]) to the cubic exact solver. The
/// iteration runs on log-scaled potentials (the log-domain stabilisation
/// of Schmitzer, SIAM J. Sci. Comput. 2019), so small epsilon neither
/// underflows nor overflows. Hitting the iteration cap reports
/// `converged = false` with the best plan found.
common::Result<SinkhornResult> SolveSinkhorn(const std::vector<double>& a,
                                             const std::vector<double>& b,
                                             const common::Matrix& cost,
                                             const SinkhornOptions& options = {});

}  // namespace otfair::ot

#endif  // OTFAIR_OT_SINKHORN_H_
