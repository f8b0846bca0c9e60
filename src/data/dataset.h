#ifndef OTFAIR_DATA_DATASET_H_
#define OTFAIR_DATA_DATASET_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "common/rng.h"

namespace otfair::data {

/// Upper bound on attribute cardinalities, shared by dataset validation
/// and the plan-file loader: guards every O(|U| * |S| * d) consumer
/// against corrupt label columns or artifacts.
inline constexpr size_t kMaxAttributeLevels = 1024;

/// A (u, s) sub-group key: the paper stratifies every operation by the
/// unprotected attribute u and the protected attribute s. Both are
/// categorical levels 0..L-1; the paper's binary setting is the special
/// case |S| = |U| = 2.
struct GroupKey {
  int u = 0;
  int s = 0;

  friend bool operator==(const GroupKey& a, const GroupKey& b) {
    return a.u == b.u && a.s == b.s;
  }
  friend bool operator<(const GroupKey& a, const GroupKey& b) {
    return a.u != b.u ? a.u < b.u : a.s < b.s;
  }
};

/// Columnar data set realizing the paper's observation model Z = {X, S, U}
/// (§II): an n x d feature matrix X, a categorical protected attribute S
/// with |S| levels, a categorical unprotected attribute U with |U| levels,
/// and an optional binary outcome Y used when training/evaluating
/// downstream classifiers. The paper's formulation is binary
/// (|S| = |U| = 2); every level count defaults to that case and the binary
/// code paths are preserved bit-for-bit.
///
/// Features are mutable (repair rewrites them); labels are fixed at
/// construction.
class Dataset {
 public:
  Dataset() = default;

  /// Validates shapes and label ranges; `outcome` may be empty (and stays
  /// binary when present). `s_levels` / `u_levels` fix the attribute
  /// cardinalities; 0 infers each as (max observed label + 1), floored at
  /// 2 so binary-era datasets keep their two-level semantics even when a
  /// level happens to be unobserved.
  static common::Result<Dataset> Create(common::Matrix features, std::vector<int> s,
                                        std::vector<int> u,
                                        std::vector<std::string> feature_names,
                                        std::vector<int> outcome = {}, size_t s_levels = 0,
                                        size_t u_levels = 0);

  /// The level count Create() infers when none is given: max label + 1,
  /// floored at 2 (the binary-era contract — an unobserved second level
  /// still exists). Exposed so serializers can tell whether a dataset's
  /// declared levels are recoverable by inference alone.
  static size_t InferLevels(const std::vector<int>& labels);

  size_t size() const { return s_.size(); }
  size_t dim() const { return features_.cols(); }
  bool empty() const { return s_.empty(); }
  bool has_outcome() const { return !y_.empty(); }

  /// Number of protected-attribute levels |S| (>= 2).
  size_t s_levels() const { return s_levels_; }
  /// Number of unprotected-attribute levels |U| (>= 1; inference floors at
  /// 2, a single stratum must be declared explicitly).
  size_t u_levels() const { return u_levels_; }

  const common::Matrix& features() const { return features_; }
  double feature(size_t i, size_t k) const { return features_(i, k); }
  void set_feature(size_t i, size_t k, double value) { features_(i, k) = value; }
  int s(size_t i) const { return s_[i]; }
  int u(size_t i) const { return u_[i]; }
  int y(size_t i) const { return y_[i]; }
  const std::vector<int>& s_labels() const { return s_; }
  const std::vector<int>& u_labels() const { return u_; }
  const std::vector<int>& outcomes() const { return y_; }
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  /// Row i as a vector (length dim()).
  std::vector<double> Row(size_t i) const;

  /// InvalidArgument naming the first non-finite feature, else Ok. A
  /// non-finite value has no place on a repair grid, so every batch repair
  /// entry point rejects it, as the CSV reader and the serving protocol do.
  common::Status CheckFinite() const;

  /// All |U| x |S| (u, s) groups of this dataset in canonical order
  /// (u-major, s-minor). Replaces the binary-era free AllGroups().
  std::vector<GroupKey> Groups() const;

  /// Indices of rows in group (u, s).
  std::vector<size_t> GroupIndices(const GroupKey& group) const;

  /// Every group's index set in ONE O(n) pass: element [u * |S| + s]
  /// holds exactly GroupIndices({u, s}) (row order preserved). Use this
  /// when iterating all groups — per-group GroupIndices calls cost
  /// |U| * |S| full scans.
  std::vector<std::vector<size_t>> GroupIndexBuckets() const;

  /// Indices of rows with the given u label (all s groups).
  std::vector<size_t> UIndices(int u) const;

  /// Feature column k restricted to `indices` (all rows if empty
  /// `indices` is passed explicitly as the full index set by callers).
  std::vector<double> FeatureColumn(size_t k, const std::vector<size_t>& indices) const;

  /// Feature column k over all rows.
  std::vector<double> FeatureColumn(size_t k) const;

  /// Row counts per (u, s) group (every group present, possibly 0).
  std::map<GroupKey, size_t> GroupCounts() const;

  /// Empirical Pr[u = 1].
  double ProportionU1() const;
  /// Empirical Pr[s = 1 | u].
  double ProportionS1GivenU(int u) const;
  /// Empirical Pr[u = level].
  double ProportionU(int level) const;
  /// Empirical Pr[s = level | u] (0 when the u stratum is empty).
  double ProportionSGivenU(int level, int u) const;

  /// New dataset containing the selected rows (in the given order). Level
  /// counts are inherited, so sub-sampling cannot shrink |S| or |U|.
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// Deep copy (features are value-copied so repairs don't alias).
  Dataset Clone() const { return *this; }

 private:
  common::Matrix features_;
  std::vector<int> s_;
  std::vector<int> u_;
  std::vector<int> y_;
  std::vector<std::string> feature_names_;
  size_t s_levels_ = 2;
  size_t u_levels_ = 2;
};

/// Randomly splits a dataset into a research set of `n_research` rows and an
/// archive with the remainder, mirroring the paper's small-research /
/// large-archive regime (n_R << n_A). Returns InvalidArgument when
/// `n_research` is 0 or >= dataset size.
common::Result<std::pair<Dataset, Dataset>> SplitResearchArchive(const Dataset& dataset,
                                                                 size_t n_research,
                                                                 common::Rng& rng);

}  // namespace otfair::data

#endif  // OTFAIR_DATA_DATASET_H_
