#ifndef OTFAIR_CORE_DESIGNER_H_
#define OTFAIR_CORE_DESIGNER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/marginals.h"
#include "core/repair_plan.h"
#include "data/dataset.h"
#include "ot/solver.h"

namespace otfair::core {

/// Options for Algorithm 1 (on-sample design of the distributional repair).
struct DesignOptions {
  /// Number of interpolated support states n_Q per (u, k) channel. The
  /// paper finds performance converges for n_Q ≳ 30 on Gaussian channels
  /// (§V-A2b) and uses 250 for Adult (§V-B).
  size_t n_q = 50;
  /// Barycentre position t along the W2 geodesic (Eq. 7) for the binary
  /// |S| = 2 case; 0.5 is the paper's fair barycentre, equidistant from
  /// both s-conditionals. Ignored when `lambdas` is set explicitly.
  double target_t = 0.5;
  /// Barycentric weights lambda_s, one per s level (normalized
  /// internally). Empty selects the default: {1 - target_t, target_t} for
  /// |S| = 2 (the paper's geodesic position) and uniform 1/|S| otherwise —
  /// the multi-group fair barycentre equidistant from every class.
  std::vector<double> lambdas;
  /// OT backend for the per-channel plans pi*_{u,s,k} (Eq. 13). Null
  /// means `ot::DefaultSolver()` — the O(n_Q) monotone map, exact for the
  /// 1-D squared-Euclidean cost used here. Any built-in backend can be
  /// injected by name (e.g. `ot::MakeSolver("exact")` for
  /// cross-validation, or "sinkhorn" with tuned `SolverOptions`).
  std::shared_ptr<const ot::Solver> solver;
  MarginalOptions marginal;
  /// Minimum samples per (u, s, k) channel (research rows per (u, s)
  /// group); below this the design is rejected with FailedPrecondition
  /// (the conditional marginal cannot be estimated).
  size_t min_group_size = 2;
  /// Worker threads for the independent (u, k) channel designs. 0 means
  /// the process-wide default (`OTFAIR_THREADS`, else hardware
  /// concurrency); 1 forces the serial path; negative is rejected.
  /// Output is bit-identical across thread counts.
  int threads = 0;
};

/// Algorithm 1: designs the (u, s, k)-indexed distributional repair plans
/// from the s|u-labelled research data, for any |S| >= 2 and |U| >= 1
/// (taken from the dataset's level counts).
///
/// For every u-stratum and feature k it (i) builds the uniform interpolated
/// support Q_{u,k} over the stratum's research range, (ii) KDE-interpolates
/// the |S| s-conditional marginals onto Q (Eq. 11), (iii) computes the
/// lambda-weighted quantile barycentre nu on Q by one sweep for every |S|
/// (Eq. 7; at |S| = 2 with lambdas {1 - t, t} the paper's t-geodesic
/// point, bit for bit), and (iv) solves the |S| OT
/// problems mu_s -> nu (Eq. 13). Complexity is dominated by the
/// d*|U|*|S| OT solves on n_Q states — independent of the archive size,
/// which is the point of the method.
common::Result<RepairPlanSet> DesignDistributionalRepair(const data::Dataset& research,
                                                         const DesignOptions& options = {});

/// Algorithm 1 driven by per-channel pseudo-samples instead of research
/// columns: the online-redesign input, where each (u, s, k) channel's
/// streamed distribution arrives as values read off a bounded-memory
/// stats::QuantileSketch, so no raw rows are ever retained.
/// `channels` is indexed `(u * s_levels + s) * dim + k` (the order
/// JudgeDrift reads sketches in), and every channel must hold at least
/// `options.min_group_size` samples. The samples flow through the same
/// support-grid / KDE-marginal / barycentre / OT-solve pipeline as the
/// dataset entry point, so the two paths produce the same plan geometry
/// for the same underlying distribution.
common::Result<RepairPlanSet> DesignFromChannelSamples(
    size_t dim, std::vector<std::string> feature_names, size_t s_levels, size_t u_levels,
    const std::vector<std::vector<double>>& channels, const DesignOptions& options = {});

}  // namespace otfair::core

#endif  // OTFAIR_CORE_DESIGNER_H_
