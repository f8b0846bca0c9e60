#include "ot/barycenter.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/matrix.h"
#include "common/status.h"
#include "ot/cost.h"
#include "ot/geodesic.h"

namespace otfair::ot {

using common::Matrix;
using common::Result;
using common::Status;

namespace {

/// The monotone solver's roundoff floor (SolveMonotone1D): mass at or
/// below it is neither emitted nor kept in a cursor.
constexpr double kMassTol = 1e-15;

}  // namespace

Result<DiscreteMeasure> QuantileBarycenter1D(const DiscreteMeasure& mu0,
                                             const DiscreteMeasure& mu1, double t) {
  if (!(t >= 0.0 && t <= 1.0)) return Status::InvalidArgument("t must lie in [0, 1]");
  // (1 - t) + t rounds to exactly 1, so normalization keeps {1 - t, t}.
  return QuantileBarycenter1D({mu0.IsSorted() ? mu0 : mu0.SortedBySupport(),
                               mu1.IsSorted() ? mu1 : mu1.SortedBySupport()},
                              {1.0 - t, t});
}

Result<DiscreteMeasure> QuantileBarycenterOnGrid(const DiscreteMeasure& mu0,
                                                 const DiscreteMeasure& mu1, double t,
                                                 const std::vector<double>& grid) {
  auto atoms = QuantileBarycenter1D(mu0, mu1, t);
  if (!atoms.ok()) return atoms.status();
  return ProjectToGrid(*atoms, grid);
}

Result<DiscreteMeasure> QuantileBarycenter1D(const std::vector<DiscreteMeasure>& measures,
                                             const std::vector<double>& lambdas) {
  if (measures.empty()) return Status::InvalidArgument("need at least one measure");
  if (measures.size() != lambdas.size())
    return Status::InvalidArgument("measures/lambdas length mismatch");
  double lambda_total = 0.0;
  for (double l : lambdas) {
    if (!(l >= 0.0)) return Status::InvalidArgument("lambdas must be non-negative");
    lambda_total += l;
  }
  if (lambda_total <= 0.0) return Status::InvalidArgument("lambdas must not all be zero");
  std::vector<double> lam(lambdas);
  for (double& l : lam) l /= lambda_total;
  const size_t num = measures.size();
  size_t total_atoms = 0;
  for (const DiscreteMeasure& m : measures) {
    if (m.empty()) return Status::InvalidArgument("empty measure");
    if (!m.IsSorted())
      return Status::InvalidArgument("quantile barycenter requires sorted measures");
    total_atoms += m.size();
  }

  // Simultaneous sweep over the common refinement of the N quantile
  // functions: measure s sits at atom idx[s] with remaining[s] of its mass
  // left; each step consumes the smallest remainder from every cursor at
  // once and emits one barycenter atom at the lambda-weighted position.
  std::vector<size_t> idx(num, 0);
  std::vector<double> remaining(num);
  for (size_t s = 0; s < num; ++s) remaining[s] = measures[s].weight_at(0);
  std::vector<double> support;
  std::vector<double> weights;
  support.reserve(total_atoms);
  weights.reserve(total_atoms);
  bool exhausted = false;
  while (!exhausted) {
    double delta = remaining[0];
    for (size_t s = 1; s < num; ++s) delta = std::min(delta, remaining[s]);
    if (delta > kMassTol) {
      double pos = lam[0] * measures[0].support_at(idx[0]);
      for (size_t s = 1; s < num; ++s) pos += lam[s] * measures[s].support_at(idx[s]);
      // Positions are non-decreasing along the sweep; merge coincident ones.
      if (!support.empty() && pos == support.back()) {
        weights.back() += delta;
      } else {
        support.push_back(pos);
        weights.push_back(delta);
      }
    }
    for (size_t s = 0; s < num; ++s) {
      remaining[s] -= delta;
      if (remaining[s] > kMassTol) continue;
      if (++idx[s] == measures[s].size()) {
        exhausted = true;
      } else {
        remaining[s] = measures[s].weight_at(idx[s]);
      }
    }
  }
  if (support.empty())
    return Status::InvalidArgument("barycenter inputs carry no mass");
  return DiscreteMeasure::Create(std::move(support), std::move(weights));
}

Result<DiscreteMeasure> QuantileBarycenterOnGrid(const std::vector<DiscreteMeasure>& measures,
                                                 const std::vector<double>& lambdas,
                                                 const std::vector<double>& grid) {
  auto atoms = QuantileBarycenter1D(measures, lambdas);
  if (!atoms.ok()) return atoms.status();
  return ProjectToGrid(*atoms, grid);
}

Result<DiscreteMeasure> BregmanBarycenter(const std::vector<DiscreteMeasure>& measures,
                                          const std::vector<double>& lambdas,
                                          const std::vector<double>& grid,
                                          const BregmanBarycenterOptions& options) {
  if (measures.empty()) return Status::InvalidArgument("need at least one measure");
  if (measures.size() != lambdas.size())
    return Status::InvalidArgument("measures/lambdas length mismatch");
  if (grid.size() < 1) return Status::InvalidArgument("empty barycenter support");
  if (!(options.epsilon > 0.0)) return Status::InvalidArgument("epsilon must be positive");

  double lambda_total = 0.0;
  for (double l : lambdas) {
    if (!(l >= 0.0)) return Status::InvalidArgument("lambdas must be non-negative");
    lambda_total += l;
  }
  if (lambda_total <= 0.0) return Status::InvalidArgument("lambdas must not all be zero");
  std::vector<double> lam(lambdas);
  for (double& l : lam) l /= lambda_total;

  const size_t num = measures.size();
  const size_t ng = grid.size();

  // Gibbs kernels between the shared barycenter grid and each input support.
  std::vector<Matrix> kernels(num);
  for (size_t k = 0; k < num; ++k) {
    Matrix cost = SquaredEuclideanCost(grid, measures[k].support());
    kernels[k] = Matrix(ng, measures[k].size());
    for (size_t i = 0; i < ng; ++i) {
      const double* crow = cost.row(i);
      double* krow = kernels[k].row(i);
      for (size_t j = 0; j < measures[k].size(); ++j)
        krow[j] = std::exp(-crow[j] / options.epsilon);
    }
  }

  // Iterative Bregman projections (Benamou et al. 2015, Alg. 1): scale each
  // coupling to its data marginal, then set the barycenter to the weighted
  // geometric mean of the grid marginals.
  std::vector<std::vector<double>> u(num, std::vector<double>(ng, 1.0));
  std::vector<double> bary(ng, 1.0 / static_cast<double>(ng));
  std::vector<double> prev(ng, 0.0);

  for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
    std::vector<double> log_bary(ng, 0.0);
    std::vector<std::vector<double>> kv(num, std::vector<double>(ng, 0.0));
    for (size_t k = 0; k < num; ++k) {
      const size_t nk = measures[k].size();
      const std::vector<double>& p = measures[k].weights();
      // v_k = p_k ./ (K_k' u_k)
      std::vector<double> v(nk, 0.0);
      for (size_t j = 0; j < nk; ++j) {
        double denom = 0.0;
        for (size_t i = 0; i < ng; ++i) denom += kernels[k](i, j) * u[k][i];
        v[j] = denom > 0.0 ? p[j] / denom : 0.0;
      }
      // kv_k = K_k v_k (grid marginal of the k-th scaled coupling)
      for (size_t i = 0; i < ng; ++i) {
        double acc = 0.0;
        const double* krow = kernels[k].row(i);
        for (size_t j = 0; j < nk; ++j) acc += krow[j] * v[j];
        kv[k][i] = acc;
        log_bary[i] += lam[k] * (acc > 0.0 ? std::log(acc) : -1e30);
      }
    }
    double total = 0.0;
    for (size_t i = 0; i < ng; ++i) {
      bary[i] = std::exp(log_bary[i]);
      if (!std::isfinite(bary[i])) return Status::NotConverged("bregman barycenter diverged");
      total += bary[i];
    }
    if (total <= 0.0) return Status::NotConverged("bregman barycenter lost all mass");
    // u_k = bary ./ (K_k v_k)
    for (size_t k = 0; k < num; ++k) {
      for (size_t i = 0; i < ng; ++i) u[k][i] = kv[k][i] > 0.0 ? bary[i] / kv[k][i] : 0.0;
    }
    double delta = 0.0;
    for (size_t i = 0; i < ng; ++i) delta = std::max(delta, std::fabs(bary[i] - prev[i]));
    prev = bary;
    if (delta < options.tolerance * total) break;
  }

  return DiscreteMeasure::Create(grid, std::move(bary));
}

}  // namespace otfair::ot
