#include "core/joint_repair.h"

#include <cmath>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/repair_plan.h"
#include "ot/plan.h"
#include "stats/kde2d.h"

namespace otfair::core {

using common::Matrix;
using common::Result;
using common::Rng;
using common::Status;

namespace {

// Mass-relative truncation for the CSR extraction of the entropic joint
// plans (same contract as SinkhornOptions::plan_truncation): row
// marginals stay exact to roundoff, column marginals move by at most
// this fraction of the total mass.
constexpr double kJointPlanTruncation = 1e-12;

/// Separable Gibbs kernel over the product grid: K((a,b),(c,d)) =
/// Kx(a,c) * Ky(b,d). Applying it to a flattened state vector costs
/// O(n_q^3) instead of the O(n_q^4) dense product.
struct SeparableKernel {
  Matrix kx;  // n_qx x n_qx
  Matrix ky;  // n_qy x n_qy

  /// result = K v, with v flattened row-major over (a, b).
  std::vector<double> Apply(const std::vector<double>& v) const {
    const size_t nx = kx.rows();
    const size_t ny = ky.rows();
    OTFAIR_CHECK_EQ(v.size(), nx * ny);
    // V as nx x ny matrix; result = Kx * V * Ky (Ky symmetric).
    Matrix value(nx, ny);
    for (size_t a = 0; a < nx; ++a) {
      for (size_t b = 0; b < ny; ++b) value(a, b) = v[a * ny + b];
    }
    Matrix mid = kx.Multiply(value);
    Matrix out = mid.Multiply(ky);
    std::vector<double> result(nx * ny);
    for (size_t a = 0; a < nx; ++a) {
      for (size_t b = 0; b < ny; ++b) result[a * ny + b] = out(a, b);
    }
    return result;
  }

  double Entry(size_t i, size_t j, size_t ny) const {
    return kx(i / ny, j / ny) * ky(i % ny, j % ny);
  }
};

SeparableKernel BuildKernel(const SupportGrid& gx, const SupportGrid& gy, double epsilon) {
  SeparableKernel kernel;
  kernel.kx = Matrix(gx.size(), gx.size());
  kernel.ky = Matrix(gy.size(), gy.size());
  for (size_t a = 0; a < gx.size(); ++a) {
    for (size_t c = 0; c < gx.size(); ++c) {
      const double d = gx.point(a) - gx.point(c);
      kernel.kx(a, c) = std::exp(-d * d / epsilon);
    }
  }
  for (size_t b = 0; b < gy.size(); ++b) {
    for (size_t d = 0; d < gy.size(); ++d) {
      const double delta = gy.point(b) - gy.point(d);
      kernel.ky(b, d) = std::exp(-delta * delta / epsilon);
    }
  }
  return kernel;
}

/// Entropic barycenter of N pmfs on the shared product grid (iterative
/// Bregman projections with barycentric weights `lambda`).
Result<std::vector<double>> EntropicBarycenter(const SeparableKernel& kernel,
                                               const std::vector<std::vector<double>>& p,
                                               const std::vector<double>& lambda,
                                               size_t max_iterations, double tolerance) {
  const size_t num = p.size();
  const size_t states = p[0].size();
  std::vector<std::vector<double>> scaling(num, std::vector<double>(states, 1.0));
  std::vector<double> bary(states, 1.0 / static_cast<double>(states));
  std::vector<double> prev(states, 0.0);

  for (size_t iter = 0; iter < max_iterations; ++iter) {
    std::vector<double> log_bary(states, 0.0);
    std::vector<std::vector<double>> kv(num);
    for (size_t m = 0; m < num; ++m) {
      std::vector<double> ku = kernel.Apply(scaling[m]);
      std::vector<double> v(states, 0.0);
      for (size_t i = 0; i < states; ++i) v[i] = ku[i] > 0.0 ? p[m][i] / ku[i] : 0.0;
      kv[m] = kernel.Apply(v);
      for (size_t i = 0; i < states; ++i)
        log_bary[i] += lambda[m] * (kv[m][i] > 0.0 ? std::log(kv[m][i]) : -1e30);
    }
    double total = 0.0;
    for (size_t i = 0; i < states; ++i) {
      bary[i] = std::exp(log_bary[i]);
      if (!std::isfinite(bary[i])) return Status::NotConverged("joint barycenter diverged");
      total += bary[i];
    }
    if (total <= 0.0) return Status::NotConverged("joint barycenter lost all mass");
    for (size_t m = 0; m < num; ++m) {
      for (size_t i = 0; i < states; ++i)
        scaling[m][i] = kv[m][i] > 0.0 ? bary[i] / kv[m][i] : 0.0;
    }
    double delta = 0.0;
    for (size_t i = 0; i < states; ++i) delta = std::max(delta, std::fabs(bary[i] - prev[i]));
    prev = bary;
    if (delta < tolerance * total) break;
  }
  double total = 0.0;
  for (double w : bary) total += w;
  for (double& w : bary) w /= total;
  return bary;
}

/// Sinkhorn plan between two pmfs on the shared product grid, returned as a
/// dense states x states coupling.
Result<Matrix> EntropicPlan(const SeparableKernel& kernel, const std::vector<double>& source,
                            const std::vector<double>& target, size_t ny,
                            size_t max_iterations, double tolerance) {
  const size_t states = source.size();
  std::vector<double> alpha(states, 1.0);
  std::vector<double> beta(states, 1.0);
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    std::vector<double> kb = kernel.Apply(beta);
    for (size_t i = 0; i < states; ++i) alpha[i] = kb[i] > 0.0 ? source[i] / kb[i] : 0.0;
    std::vector<double> ka = kernel.Apply(alpha);
    double err = 0.0;
    for (size_t j = 0; j < states; ++j) {
      const double col = beta[j] * ka[j];
      err = std::max(err, std::fabs(col - target[j]));
      beta[j] = ka[j] > 0.0 ? target[j] / ka[j] : 0.0;
    }
    if (err < tolerance) break;
  }
  Matrix plan(states, states);
  for (size_t i = 0; i < states; ++i) {
    if (alpha[i] == 0.0) continue;
    double* row = plan.row(i);
    for (size_t j = 0; j < states; ++j) {
      row[j] = alpha[i] * kernel.Entry(i, j, ny) * beta[j];
      if (!std::isfinite(row[j])) return Status::NotConverged("joint plan diverged");
    }
  }
  return plan;
}

/// Dense 2-D squared-Euclidean cost over the flattened product states,
/// for solving the joint plans through an injected backend.
Matrix ProductGridCost(const SupportGrid& gx, const SupportGrid& gy) {
  const size_t ny = gy.size();
  const size_t states = gx.size() * ny;
  // Flattened per-state coordinates, so the O(states^2) loop below does
  // no index arithmetic or grid lookups.
  std::vector<double> xs(states);
  std::vector<double> ys(states);
  for (size_t i = 0; i < states; ++i) {
    xs[i] = gx.point(i / ny);
    ys[i] = gy.point(i % ny);
  }
  Matrix cost(states, states);
  for (size_t i = 0; i < states; ++i) {
    double* row = cost.row(i);
    for (size_t j = 0; j < states; ++j) {
      const double dx = xs[i] - xs[j];
      const double dy = ys[i] - ys[j];
      row[j] = dx * dx + dy * dy;
    }
  }
  return cost;
}

}  // namespace

Result<JointPairRepairer> JointPairRepairer::Design(const data::Dataset& research, size_t k1,
                                                    size_t k2,
                                                    const JointDesignOptions& options) {
  if (research.empty()) return Status::InvalidArgument("empty research dataset");
  if (k1 >= research.dim() || k2 >= research.dim() || k1 == k2)
    return Status::InvalidArgument("feature pair must be two distinct valid columns");
  if (options.n_q < 2 || options.n_q > 64)
    return Status::InvalidArgument("n_q must lie in [2, 64] (states scale as n_q^2)");
  if (!(options.target_t >= 0.0 && options.target_t <= 1.0))
    return Status::InvalidArgument("target_t must lie in [0, 1]");
  if (!(options.epsilon > 0.0)) return Status::InvalidArgument("epsilon must be positive");
  if (options.solver && !options.solver->supports_general_cost())
    return Status::Unimplemented("joint repair solves product-grid (2-D) problems; backend '" +
                                 options.solver->name() + "' supports 1-D costs only");

  const size_t s_levels = research.s_levels();
  const size_t u_levels = research.u_levels();

  // Barycentric class weights (shared contract: ResolveLambdas).
  auto resolved = ResolveLambdas(options.lambdas, options.target_t, s_levels);
  if (!resolved.ok()) return resolved.status();
  const std::vector<double> lam = std::move(*resolved);

  JointPairRepairer repairer;
  repairer.k1_ = k1;
  repairer.k2_ = k2;
  repairer.s_levels_ = s_levels;
  repairer.strata_.resize(u_levels);

  for (size_t u = 0; u < u_levels; ++u) {
    std::vector<std::vector<size_t>> idx_by_s(s_levels);
    for (size_t s = 0; s < s_levels; ++s) {
      idx_by_s[s] = research.GroupIndices({static_cast<int>(u), static_cast<int>(s)});
      if (idx_by_s[s].size() < options.min_group_size)
        return Status::FailedPrecondition("research group (u=" + std::to_string(u) +
                                          ") too small for joint design");
    }
    const std::vector<size_t> idx_all = research.UIndices(static_cast<int>(u));

    StratumPlan& stratum = repairer.strata_[u];
    stratum.alias.resize(s_levels);
    auto grid_x = SupportGrid::FromSamples(research.FeatureColumn(k1, idx_all), options.n_q);
    if (!grid_x.ok()) return grid_x.status();
    auto grid_y = SupportGrid::FromSamples(research.FeatureColumn(k2, idx_all), options.n_q);
    if (!grid_y.ok()) return grid_y.status();
    stratum.grid_x = std::move(*grid_x);
    stratum.grid_y = std::move(*grid_y);
    const size_t ny = stratum.grid_y.size();
    const size_t states = stratum.grid_x.size() * ny;

    // Effective epsilon scales with the squared support span, so the same
    // dimensionless option works across feature scales.
    const double span_x = stratum.grid_x.hi() - stratum.grid_x.lo();
    const double span_y = stratum.grid_y.hi() - stratum.grid_y.lo();
    const double epsilon = options.epsilon * (span_x * span_x + span_y * span_y);
    const SeparableKernel kernel = BuildKernel(stratum.grid_x, stratum.grid_y, epsilon);

    // 2-D KDE-interpolated joint marginals, flattened row-major.
    std::vector<std::vector<double>> marginal(s_levels);
    for (size_t s = 0; s < s_levels; ++s) {
      const std::vector<size_t>& idx = idx_by_s[s];
      auto kde = options.bandwidth > 0.0
                     ? stats::GaussianKde2d::Fit(research.FeatureColumn(k1, idx),
                                                 research.FeatureColumn(k2, idx),
                                                 options.bandwidth, options.bandwidth)
                     : stats::GaussianKde2d::FitSilverman(research.FeatureColumn(k1, idx),
                                                          research.FeatureColumn(k2, idx));
      if (!kde.ok()) return kde.status();
      auto pmf = kde->PmfOnGrid(stratum.grid_x.points(), stratum.grid_y.points());
      if (!pmf.ok()) return pmf.status();
      marginal[s].assign(pmf->data(), pmf->data() + pmf->size());
    }

    auto barycenter = EntropicBarycenter(kernel, marginal, lam, options.max_iterations,
                                         options.tolerance);
    if (!barycenter.ok()) return barycenter.status();

    // An injected backend solves the dense product-grid problem under the
    // true 2-D cost; the default path keeps the separable-kernel entropic
    // iteration.
    Matrix product_cost;
    if (options.solver) product_cost = ProductGridCost(stratum.grid_x, stratum.grid_y);
    auto solve_plan = [&](const std::vector<double>& source) -> Result<Matrix> {
      if (!options.solver)
        return EntropicPlan(kernel, source, *barycenter, ny, options.max_iterations,
                            options.tolerance);
      auto solved = options.solver->Solve(source, *barycenter, product_cost);
      if (!solved.ok()) return solved.status();
      return std::move(solved->coupling);
    };

    for (size_t s = 0; s < s_levels; ++s) {
      Result<Matrix> plan = solve_plan(marginal[s]);
      if (!plan.ok()) return plan.status();
      // Truncated CSR extraction: the dense n_q^2 x n_q^2 coupling is a
      // solver intermediate; only its effective support becomes alias
      // rows (value spans read in place, O(nnz) in all).
      const ot::SparsePlan pi = ot::TruncateToSparse(*plan, kJointPlanTruncation);
      stats::AliasArena& alias = stratum.alias[s];
      alias.Reserve(states, pi.nnz());
      for (size_t q = 0; q < states; ++q) {
        const ot::SparsePlan::RowView row = pi.Row(q);
        OTFAIR_RETURN_IF_ERROR(alias.AppendRow(row.values, row.cols, row.nnz));
      }
      OTFAIR_RETURN_IF_ERROR(alias.Finish());
    }
  }
  return repairer;
}

const JointPairRepairer::StratumPlan& JointPairRepairer::PlanFor(int u) const {
  OTFAIR_CHECK(u >= 0 && static_cast<size_t>(u) < strata_.size());
  return strata_[static_cast<size_t>(u)];
}

std::pair<double, double> JointPairRepairer::RepairPair(int u, int s, double x, double y,
                                                        Rng& rng) const {
  OTFAIR_CHECK(s >= 0 && static_cast<size_t>(s) < s_levels_);
  // Locate would cast a NaN offset to an index.
  OTFAIR_CHECK(std::isfinite(x) && std::isfinite(y)) << "RepairPair needs finite values";
  const StratumPlan& stratum = PlanFor(u);
  const size_t ny = stratum.grid_y.size();

  SupportGrid::Location loc_x = stratum.grid_x.Locate(x);
  SupportGrid::Location loc_y = stratum.grid_y.Locate(y);
  size_t qx = loc_x.lower;
  size_t qy = loc_y.lower;
  if (rng.Bernoulli(loc_x.tau) && qx + 1 < stratum.grid_x.size()) ++qx;
  if (rng.Bernoulli(loc_y.tau) && qy + 1 < ny) ++qy;
  // One draw from the plan row (or, for an empty row, its fallback row);
  // the slot payload is the flattened target state.
  const stats::AliasArena& alias = stratum.alias[static_cast<size_t>(s)];
  const size_t j = alias.SampleCol(alias.fallback()[qx * ny + qy], rng);
  return {stratum.grid_x.point(j / ny), stratum.grid_y.point(j % ny)};
}

Result<data::Dataset> JointPairRepairer::RepairDataset(const data::Dataset& dataset,
                                                       uint64_t seed) const {
  if (k1_ >= dataset.dim() || k2_ >= dataset.dim())
    return Status::InvalidArgument("dataset lacks the designed feature pair");
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.s(i) < 0 || static_cast<size_t>(dataset.s(i)) >= s_levels_ ||
        dataset.u(i) < 0 || static_cast<size_t>(dataset.u(i)) >= strata_.size())
      return Status::InvalidArgument("dataset labels exceed the designed group levels");
  }
  OTFAIR_RETURN_IF_ERROR(dataset.CheckFinite());
  data::Dataset repaired = dataset.Clone();
  // Row i draws from sub-stream (seed, i), so rows are order-independent
  // and the parallel batch is bit-identical to the serial one.
  common::parallel::ParallelFor(0, dataset.size(), [&](size_t i) {
    Rng rng = Rng::ForStream(seed, i);
    const auto [x, y] = RepairPair(dataset.u(i), dataset.s(i), dataset.feature(i, k1_),
                                   dataset.feature(i, k2_), rng);
    repaired.set_feature(i, k1_, x);
    repaired.set_feature(i, k2_, y);
  });
  return repaired;
}

}  // namespace otfair::core
