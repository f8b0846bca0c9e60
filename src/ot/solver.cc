#include "ot/solver.h"

#include <utility>

#include "common/status.h"
#include "ot/cost.h"
#include "ot/monotone.h"

namespace otfair::ot {

using common::Matrix;
using common::Result;
using common::Status;

namespace {

Status RequireSorted(const DiscreteMeasure& mu, const DiscreteMeasure& nu) {
  if (!mu.IsSorted() || !nu.IsSorted())
    return Status::InvalidArgument("Solve1DSparse requires sorted supports");
  return Status::Ok();
}

/// Dense coupling of mu -> nu under the squared-Euclidean cost.
Result<TransportPlan> SolveDense1D(const Solver& solver, const DiscreteMeasure& mu,
                                   const DiscreteMeasure& nu) {
  if (Status status = RequireSorted(mu, nu); !status.ok()) return status;
  return solver.Solve(mu.weights(), nu.weights(),
                      SquaredEuclideanCost(mu.support(), nu.support()));
}

/// Exact successive-shortest-paths backend (ot/exact.h).
class ExactSolver : public Solver {
 public:
  explicit ExactSolver(const ExactSolverOptions& options) : options_(options) {}

  const std::string& name() const override {
    static const std::string kName = "exact";
    return kName;
  }
  bool supports_general_cost() const override { return true; }

  Result<TransportPlan> Solve(const std::vector<double>& a, const std::vector<double>& b,
                              const Matrix& cost) const override {
    return SolveExact(a, b, cost, options_);
  }

 private:
  ExactSolverOptions options_;
};

/// Entropy-regularized Sinkhorn backend (ot/sinkhorn.h).
class SinkhornSolver : public Solver {
 public:
  explicit SinkhornSolver(const SinkhornOptions& options) : options_(options) {}

  const std::string& name() const override {
    static const std::string kName = "sinkhorn";
    return kName;
  }
  bool supports_general_cost() const override { return true; }

  Result<TransportPlan> Solve(const std::vector<double>& a, const std::vector<double>& b,
                              const Matrix& cost) const override {
    auto result = SolveSinkhorn(a, b, cost, options_);
    if (!result.ok()) return result.status();
    return std::move(result->plan);
  }

  /// Sparse materialization applies the epsilon-aware band truncation:
  /// entries below the mass-relative `plan_truncation` threshold are
  /// dropped at extraction time and their mass folded back onto the
  /// surviving band, so the CSR plan keeps exact row marginals and
  /// column marginals within solver tolerance (see SinkhornOptions).
  Result<SparsePlan> Solve1DSparse(const DiscreteMeasure& mu,
                                   const DiscreteMeasure& nu) const override {
    auto dense = SolveDense1D(*this, mu, nu);
    if (!dense.ok()) return dense.status();
    return TruncateToSparse(dense->coupling, options_.plan_truncation);
  }

 private:
  SinkhornOptions options_;
};

/// O(n + m) monotone-rearrangement backend, optimal for convex 1-D costs
/// (ot/monotone.h). It has no general dense solve: the coupling is defined
/// by the quantile structure of the line, not by a cost matrix.
class MonotoneSolver : public Solver {
 public:
  const std::string& name() const override {
    static const std::string kName = "monotone";
    return kName;
  }
  bool supports_general_cost() const override { return false; }

  Result<TransportPlan> Solve(const std::vector<double>& /*a*/,
                              const std::vector<double>& /*b*/,
                              const Matrix& /*cost*/) const override {
    return Status::Unimplemented(
        "monotone solver is 1-D only (no general ground cost); use Solve1DSparse "
        "or pick the exact/sinkhorn backend");
  }

  /// The staircase goes straight into CSR, already in row-major order.
  Result<SparsePlan> Solve1DSparse(const DiscreteMeasure& mu,
                                   const DiscreteMeasure& nu) const override {
    if (Status status = RequireSorted(mu, nu); !status.ok()) return status;
    auto coupling = SolveMonotone1D(mu, nu);
    if (!coupling.ok()) return coupling.status();
    return SparsePlan::FromEntries(std::move(coupling->entries), mu.size(), nu.size());
  }
};

}  // namespace

Result<SparsePlan> Solver::Solve1DSparse(const DiscreteMeasure& mu,
                                         const DiscreteMeasure& nu) const {
  auto plan = SolveDense1D(*this, mu, nu);
  if (!plan.ok()) return plan.status();
  return SparsePlan::FromDense(plan->coupling, 1e-15);
}

Result<std::shared_ptr<const Solver>> MakeSolver(const std::string& name,
                                                 const SolverOptions& options) {
  std::shared_ptr<const Solver> solver;
  if (name == "exact") solver = std::make_shared<const ExactSolver>(options.exact);
  if (name == "monotone") solver = DefaultSolver();
  if (name == "sinkhorn") solver = std::make_shared<const SinkhornSolver>(options.sinkhorn);
  if (solver) return solver;
  std::string known;
  for (const std::string& n : SolverNames()) known += (known.empty() ? "" : ", ") + n;
  return Status::NotFound("unknown solver '" + name + "' (known: " + known + ")");
}

const std::vector<std::string>& SolverNames() {
  static const std::vector<std::string> names = {"exact", "monotone", "sinkhorn"};
  return names;
}

std::shared_ptr<const Solver> DefaultSolver() {
  static const std::shared_ptr<const Solver> solver =
      std::make_shared<const MonotoneSolver>();
  return solver;
}

}  // namespace otfair::ot
