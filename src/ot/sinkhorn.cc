#include "ot/sinkhorn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/simd.h"
#include "common/status.h"
#include "obs/trace.h"

namespace otfair::ot {

using common::Matrix;
using common::Result;
using common::Status;
using common::parallel::ParallelFor;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Below this many matrix elements a row update is microseconds of work
/// and the per-iteration pool handshake would dominate, so small solves
/// force the inline (threads=1) path; larger ones defer to the
/// process-wide thread count.
size_t RowUpdateThreads(size_t n, size_t m) { return n * m < 16384 ? 1 : 0; }

/// The scaling iteration below is written cache-aware: the f update
/// streams rows of the scaled cost, the g update streams rows of a
/// transposed copy kept alongside, so neither direction strides
/// column-wise through row-major storage. The full plan matrix is only
/// materialized when convergence is plausible, not every few iterations.
///
/// Two-tier convergence check. Cheap tier, every iteration: after the f
/// update the half-updated plan's row marginals match `a` by
/// construction, so its worst violation is carried entirely by the
/// columns,
///     err_j = | exp(g_j / eps + LSE_i((f_i - C_ij)/eps)) - b_j |
/// and the LSE is exactly the quantity the g update computes anyway, so
/// this tier is free. Certifying tier: only when the cheap violation
/// clears tolerance (or the iteration cap is hit) is the actual plan
/// rebuilt and measured — `converged == true` always refers to the
/// returned plan.
Result<SinkhornResult> SolveLogDomain(const std::vector<double>& a, const std::vector<double>& b,
                                      const Matrix& cost, const SinkhornOptions& opt) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t row_threads = RowUpdateThreads(n, m);
  const double inv_eps = 1.0 / opt.epsilon;
  // Pre-scaled cost C/eps (plus its transpose for the g update): the
  // inner LSE loops then run on plain subtractions.
  Matrix cost_scaled(n, m);
  Matrix cost_scaled_t(m, n);
  ParallelFor(0, n, [&](size_t i) {
    const double* crow = cost.row(i);
    double* srow = cost_scaled.row(i);
    for (size_t j = 0; j < m; ++j) srow[j] = crow[j] * inv_eps;
  }, row_threads);
  ParallelFor(0, m, [&](size_t j) {
    double* trow = cost_scaled_t.row(j);
    for (size_t i = 0; i < n; ++i) trow[i] = cost_scaled(i, j);
  }, row_threads);
  std::vector<double> log_a(n);
  std::vector<double> log_b(m);
  for (size_t i = 0; i < n; ++i) log_a[i] = a[i] > 0.0 ? std::log(a[i]) : kNegInf;
  for (size_t j = 0; j < m; ++j) log_b[j] = b[j] > 0.0 ? std::log(b[j]) : kNegInf;

  // Scaled potentials: fs = f/eps, gs = g/eps (f = eps log u, g = eps
  // log v). Keeping the iteration entirely in the scaled domain drops
  // two multiplies per matrix element per iteration.
  std::vector<double> fs(n, 0.0);
  std::vector<double> gs(m, 0.0);
  std::vector<double> col_err(m, 0.0);
  SinkhornResult out;
  Matrix& plan = out.plan.coupling;
  plan = Matrix(n, m);
  bool plan_current = false;
  auto rebuild_plan = [&] {
    ParallelFor(0, n, [&](size_t i) {
      const double* srow = cost_scaled.row(i);
      double* prow = plan.row(i);
      const double fsi = fs[i];
      for (size_t j = 0; j < m; ++j) {
        const double e = fsi + gs[j] - srow[j];
        prow[j] = (e == kNegInf) ? 0.0 : std::exp(e);
      }
    }, row_threads);
  };

  for (size_t iter = 1; iter <= opt.max_iterations; ++iter) {
    OTFAIR_TRACE_SPAN("sinkhorn_iter");
    // fs_i = log a_i - LSE_j(gs_j - C_ij/eps). The fused two-pass LSE
    // (max, then exp-sum, no scratch buffer) lives in the SIMD layer:
    // both tables run it four lanes wide to the same bits.
    ParallelFor(0, n, [&](size_t i) {
      if (log_a[i] == kNegInf) {
        fs[i] = kNegInf;
        return;
      }
      fs[i] = log_a[i] - common::simd::LseDiff(gs.data(), cost_scaled.row(i), m);
    }, row_threads);
    // gs_j = log b_j - LSE_i(fs_i - C_ij/eps); col_err records the
    // pre-update column violation exp(gs_j + LSE) vs b_j.
    ParallelFor(0, m, [&](size_t j) {
      if (log_b[j] == kNegInf) {
        // Zero-mass column: gs pins to -inf, its plan column is all
        // zeros, and the certifying check owns the corner cases — skip
        // the O(n) LSE entirely.
        gs[j] = kNegInf;
        col_err[j] = 0.0;
        return;
      }
      const double lse = common::simd::LseDiff(fs.data(), cost_scaled_t.row(j), n);
      const double log_col = gs[j] == kNegInf ? kNegInf : gs[j] + lse;
      col_err[j] = std::fabs((log_col == kNegInf ? 0.0 : std::exp(log_col)) - b[j]);
      gs[j] = log_b[j] - lse;
    }, row_threads);
    out.iterations = iter;
    double err = 0.0;
    for (const double e : col_err) err = std::max(err, e);
    if (err < opt.tolerance || iter == opt.max_iterations) {
      // Candidate convergence: certify on the plan actually returned, by
      // its worst row or column violation.
      rebuild_plan();
      plan_current = true;
      if (out.plan.MarginalError(a, b) < opt.tolerance) {
        out.converged = true;
        break;
      }
      if (iter < opt.max_iterations) plan_current = false;
    }
  }

  if (!plan_current) rebuild_plan();
  out.plan.cost = plan.Dot(cost);
  return out;
}

}  // namespace

Result<SinkhornResult> SolveSinkhorn(const std::vector<double>& a, const std::vector<double>& b,
                                     const Matrix& cost, const SinkhornOptions& options) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty marginal");
  if (cost.rows() != n || cost.cols() != m)
    return Status::InvalidArgument("cost matrix shape mismatch");
  if (!(options.epsilon > 0.0)) return Status::InvalidArgument("epsilon must be positive");

  double sum_a = 0.0;
  double sum_b = 0.0;
  for (double w : a) {
    if (!(w >= 0.0)) return Status::InvalidArgument("negative source weight");
    sum_a += w;
  }
  for (double w : b) {
    if (!(w >= 0.0)) return Status::InvalidArgument("negative target weight");
    sum_b += w;
  }
  if (sum_a <= 0.0 || sum_b <= 0.0) return Status::InvalidArgument("marginals must carry mass");
  if (std::fabs(sum_a - sum_b) > 1e-9 * std::max(sum_a, sum_b))
    return Status::InvalidArgument("unbalanced problem: marginal totals differ");

  return SolveLogDomain(a, b, cost, options);
}

}  // namespace otfair::ot
