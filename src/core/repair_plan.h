#ifndef OTFAIR_CORE_REPAIR_PLAN_H_
#define OTFAIR_CORE_REPAIR_PLAN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/support_grid.h"
#include "ot/measure.h"
#include "ot/plan.h"

namespace otfair::data {
class Dataset;
}  // namespace otfair::data

namespace otfair::core {

/// Everything Algorithm 1 produces for one (u, k) channel: the interpolated
/// support Q_{u,k}, the |S| KDE-interpolated s-conditional marginals
/// mu_{u,s,k}, the barycentric target nu_{u,k}, and the |S| OT plans
/// pi*_{u,s,k} in P(Q x Q) (rows: source states, columns: target states).
/// The paper's binary formulation is |S| = 2; `marginal` and `plan` are
/// indexed by s-level and sized at design/load time.
///
/// Plans are stored in CSR form (`ot::SparsePlan`): the monotone backend
/// produces at most 2 n_Q - 1 staircase entries per plan, so the artifact
/// is O(n_Q) instead of O(n_Q^2) per channel — the representation that
/// makes n_Q >= 4096 grids affordable.
struct ChannelPlan {
  SupportGrid grid;
  std::vector<ot::DiscreteMeasure> marginal;  // indexed by s; size |S|
  ot::DiscreteMeasure barycenter;
  std::vector<ot::SparsePlan> plan;           // indexed by s; n_Q x n_Q CSR

  size_t s_levels() const { return marginal.size(); }

  /// Structural invariants: square plans matching the grid size, plan
  /// marginals consistent with `marginal` (row sums) and `barycenter`
  /// (column sums) within `tolerance`. Exercised by tests and after
  /// deserialization.
  common::Status Validate(double tolerance = 1e-6) const;
};

/// Resolves user-supplied barycentric class weights into the normalized
/// per-level lambdas the repair stages consume. Empty input selects the
/// default — the paper's {1 - t, t} geodesic for |S| = 2 and the uniform
/// fair barycentre 1/|S| otherwise; explicit weights must carry one
/// non-negative entry per s level (not all zero) and come back normalized
/// to sum to one. Shared by the 1-D designer, the geometric baseline and
/// the joint repairer so the weighting contract lives in one place.
common::Result<std::vector<double>> ResolveLambdas(const std::vector<double>& lambdas,
                                                   double t, size_t s_levels);

/// The complete output of repair design: one ChannelPlan per
/// (u, k) in {0..|U|-1} x {1..d}, plus the design metadata needed to apply
/// it (paper Algorithm 1 output, consumed by Algorithm 2).
class RepairPlanSet {
 public:
  RepairPlanSet() = default;
  RepairPlanSet(size_t dim, std::vector<std::string> feature_names, size_t s_levels = 2,
                size_t u_levels = 2);

  size_t dim() const { return dim_; }
  size_t s_levels() const { return s_levels_; }
  size_t u_levels() const { return u_levels_; }
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  ChannelPlan& At(int u, size_t k);
  const ChannelPlan& At(int u, size_t k) const;

  /// Barycentre position t used at design time (0.5 = the fair
  /// barycentre). Binary-era metadata: for |S| = 2 it is the pairwise
  /// geodesic position the designer actually used (lambdas()[1] up to
  /// normalization roundoff); for |S| > 2 it is retained for reporting
  /// but lambdas() is the source of truth.
  double target_t() const { return target_t_; }
  void set_target_t(double t) { target_t_ = t; }

  /// Barycentric weights lambda_s (size |S|, summing to one): the repair
  /// target is the lambda-weighted W2 barycenter of the s-conditionals.
  /// Defaults to the binary {1 - t, t}.
  const std::vector<double>& lambdas() const { return lambdas_; }
  common::Status set_lambdas(std::vector<double> lambdas);

  /// Validates every channel (see ChannelPlan::Validate).
  common::Status Validate(double tolerance = 1e-6) const;

  /// The input checks of the 1-D repairers' batch RepairDataset* entry
  /// points: `dataset` has dim() features, all finite, and u labels below
  /// u_levels(); `s_labels` holds one label below s_levels() per row.
  common::Status CheckRepairInput(const data::Dataset& dataset,
                                  const std::vector<int>& s_labels) const;
  /// As above for soft repair: `pr_s1` holds one posterior Pr[s = 1] in
  /// [0, 1] per row, and the plan set must have binary s.
  common::Status CheckRepairInput(const data::Dataset& dataset,
                                  const std::vector<double>& pr_s1) const;

  /// Binary persistence: a designed plan is a deployable artifact — design
  /// once on the research data, then ship the file to the systems that
  /// repair archival torrents. Format v3: magic/version header, dims,
  /// |U|/|S| level counts and barycentric lambdas, then per-channel grids,
  /// marginals, barycenters and CSR plans (row offsets, column indices,
  /// values; little-endian). Version-1 files (dense binary plans) and
  /// version-2 files (binary CSR plans) still load, mapping to
  /// |S| = |U| = 2 with lambdas {1 - t, t}.
  /// File writes are atomic (write-temp + fsync + rename), so a crash
  /// mid-save leaves the previous plan file intact; reads retry EINTR and
  /// short reads. Loading validates every length field against the bytes
  /// actually present before allocating, so truncated, oversized or
  /// bit-flipped files come back as Status errors — never a crash or an
  /// out-of-bounds read.
  common::Status SaveToFile(const std::string& path) const;
  static common::Result<RepairPlanSet> LoadFromFile(const std::string& path);

  /// The same v3 byte format, in memory: SaveToFile is exactly
  /// SerializeToString + atomic write, and ParseFromBuffer is the single
  /// parser behind LoadFromFile, checkpoint recovery, and the fuzzers.
  /// `context` labels error messages (a path or "checkpoint").
  std::string SerializeToString() const;
  /// Exact length of SerializeToString()'s output, computed from the
  /// shapes alone (the serializer reserves it once and checks it).
  size_t SerializedSize() const;
  static common::Result<RepairPlanSet> ParseFromBuffer(const char* data, size_t size,
                                                       const std::string& context);

 private:
  size_t dim_ = 0;
  size_t s_levels_ = 2;
  size_t u_levels_ = 2;
  double target_t_ = 0.5;
  std::vector<double> lambdas_ = {0.5, 0.5};
  std::vector<std::string> feature_names_;
  std::vector<ChannelPlan> channels_;  // index: u * dim_ + k
};

}  // namespace otfair::core

#endif  // OTFAIR_CORE_REPAIR_PLAN_H_
