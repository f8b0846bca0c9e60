#ifndef OTFAIR_CORE_JOINT_REPAIR_H_
#define OTFAIR_CORE_JOINT_REPAIR_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/support_grid.h"
#include "data/dataset.h"
#include "ot/solver.h"
#include "stats/sampling.h"

namespace otfair::core {

/// Options for joint (bivariate) repair design.
struct JointDesignOptions {
  /// Grid states per axis; the OT problems run on n_q^2 product states, so
  /// keep this moderate (the curse of dimensionality the paper's
  /// per-feature stratification avoids, quantified here).
  size_t n_q = 24;
  /// Barycentre position along the (entropic) geodesic for |S| = 2;
  /// ignored when `lambdas` is set.
  double target_t = 0.5;
  /// Barycentric class weights (one per s level, normalized internally).
  /// Empty selects {1 - target_t, target_t} for |S| = 2 and uniform
  /// weights otherwise.
  std::vector<double> lambdas;
  /// Entropic regularization for the 2-D barycenter and plans. Exact 2-D
  /// OT on n_q^2 states is prohibitively slow for n_q beyond ~12, which is
  /// itself part of the ablation's message.
  double epsilon = 0.05;
  size_t max_iterations = 2000;
  double tolerance = 1e-8;
  size_t min_group_size = 8;
  /// KDE bandwidth per axis; 0 = Silverman.
  double bandwidth = 0.0;
  /// Optional OT backend for the per-s plans mu_s -> nu on the flattened
  /// product grid. Null (default) uses the built-in separable-kernel
  /// entropic path, which exploits the product structure for an
  /// O(n_q^3)-per-application kernel. A `ot::MakeSolver` backend (e.g.
  /// "exact" for cross-validation) instead solves the dense n_q^2-state
  /// problem under the true 2-D squared-Euclidean cost — only sensible for
  /// moderate n_q, and it must support general costs ("monotone" is
  /// rejected, being 1-D only). The barycentre itself is always entropic.
  std::shared_ptr<const ot::Solver> solver;
};

/// Joint repair of one feature *pair* (k1, k2): the correlation-aware
/// alternative to the paper's per-feature stratification (§VI).
///
/// Design mirrors Algorithm 1 but on the product support Q_x × Q_y per
/// u-stratum: 2-D KDE marginals, an entropic W2 barycentre over the
/// flattened states (iterative Bregman projections with a separable Gibbs
/// kernel), and entropic plans mu_s -> nu. Repair mirrors Algorithm 2 with
/// two independent Bernoulli quantization draws (one per axis) and one
/// multinomial draw from the joint plan row, so both coordinates of a
/// record move *coherently* — preserving (indeed equalizing) the
/// s-conditional correlation structure that per-feature repair leaves
/// behind.
///
/// Costs: design is O(iterations * n_q^3) per (u, s); repair is O(1) per
/// record after alias-table setup. The solved coupling is nominally
/// n_q^2 x n_q^2 per (u, s) — the quadratic blow-up the paper's d-fold
/// stratification sidesteps — but only its truncated CSR support is
/// retained, so the resident artifact scales with the entropic band.
class JointPairRepairer {
 public:
  /// Designs the joint repair for columns (k1, k2) of `research`.
  static common::Result<JointPairRepairer> Design(const data::Dataset& research, size_t k1,
                                                  size_t k2,
                                                  const JointDesignOptions& options = {});

  /// Repairs one (x, y) value pair of stratum (u, s).
  std::pair<double, double> RepairPair(int u, int s, double x, double y,
                                       common::Rng& rng) const;

  /// Repairs columns (k1, k2) of every row (other columns untouched).
  common::Result<data::Dataset> RepairDataset(const data::Dataset& dataset,
                                              uint64_t seed) const;

  size_t k1() const { return k1_; }
  size_t k2() const { return k2_; }

 private:
  struct StratumPlan {
    SupportGrid grid_x;
    SupportGrid grid_y;
    /// Per s, one alias row per joint-plan row (row = source state
    /// a * n_qy + b) over its truncated CSR support; slot payloads are the
    /// flattened target states.
    std::vector<stats::AliasArena> alias;  // indexed by s
  };

  JointPairRepairer() = default;

  const StratumPlan& PlanFor(int u) const;

  size_t k1_ = 0;
  size_t k2_ = 0;
  size_t s_levels_ = 2;
  std::vector<StratumPlan> strata_;  // one per u stratum
};

}  // namespace otfair::core

#endif  // OTFAIR_CORE_JOINT_REPAIR_H_
