#ifndef OTFAIR_OT_SOLVER_H_
#define OTFAIR_OT_SOLVER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "ot/exact.h"
#include "ot/measure.h"
#include "ot/plan.h"
#include "ot/sinkhorn.h"

namespace otfair::ot {

/// Polymorphic OT backend: the single seam through which the repair
/// pipeline, the CLI and the benchmarks obtain Kantorovich couplings.
///
/// The paper's Algorithm 1 needs one OT solve per (u, s, k) channel
/// (Eq. 13) and deliberately leaves the solver interchangeable — exact
/// Kantorovich (§IV-A1's O(n^3 log n) regime), entropic Sinkhorn
/// (O(n^2/eps^2)), or the O(n) 1-D monotone map, which is optimal for
/// every convex ground cost on the line. Implementations wrap exactly one
/// of those backends; callers hold a `shared_ptr<const Solver>` and never
/// branch on a backend enum.
///
/// Two solve granularities are exposed:
///  - `Solve` is the general dense problem under an arbitrary ground
///    cost (used by the joint/bivariate repair on product grids);
///  - `Solve1DSparse` is the 1-D squared-Euclidean problem between two
///    measures on their own (sorted) supports, returned as CSR — the hot
///    call of the per-channel pipeline.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Backend name ("monotone", "exact" or "sinkhorn").
  virtual const std::string& name() const = 0;

  /// True when `Solve` accepts an arbitrary ground cost. The monotone
  /// backend exploits 1-D convex-cost structure and returns
  /// Unimplemented from `Solve`; probe this before dispatching product-
  /// grid (multi-dimensional) problems.
  virtual bool supports_general_cost() const = 0;

  /// Solves the discrete Kantorovich problem between weight vectors `a`
  /// (n) and `b` (m) under the n x m ground cost, returning the dense
  /// coupling and its unregularized objective <C, pi>.
  virtual common::Result<TransportPlan> Solve(const std::vector<double>& a,
                                              const std::vector<double>& b,
                                              const common::Matrix& cost) const = 0;

  /// Solves mu -> nu under the squared-Euclidean cost on the measures'
  /// own supports, which must be sorted (ascending), as a CSR plan whose
  /// rows index atoms of `mu` and columns atoms of `nu` — the shape the
  /// per-channel repair plans store (Eq. 13 couplings on the support
  /// grid). The base implementation builds the dense cost, calls `Solve`
  /// and keeps the entries above 1e-15; the monotone backend writes its
  /// staircase straight into CSR, and the Sinkhorn backend applies its
  /// `plan_truncation` band extraction (see SinkhornOptions).
  virtual common::Result<SparsePlan> Solve1DSparse(const DiscreteMeasure& mu,
                                                   const DiscreteMeasure& nu) const;
};

/// Tuning knobs consumed by the built-in backends at construction, so a
/// CLI flag or config file can parameterize any backend uniformly.
struct SolverOptions {
  ExactSolverOptions exact;
  SinkhornOptions sinkhorn;
};

/// Creates the built-in backend called `name` ("exact", "monotone" or
/// "sinkhorn"); NotFound, with the known names in the message, otherwise.
common::Result<std::shared_ptr<const Solver>> MakeSolver(const std::string& name,
                                                         const SolverOptions& options = {});

/// The names `MakeSolver` accepts, sorted.
const std::vector<std::string>& SolverNames();

/// The pipeline default: a shared monotone solver (exact and O(n) for the
/// 1-D squared-Euclidean channels of Algorithm 1).
std::shared_ptr<const Solver> DefaultSolver();

}  // namespace otfair::ot

#endif  // OTFAIR_OT_SOLVER_H_
