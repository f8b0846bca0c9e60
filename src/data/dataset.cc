#include "data/dataset.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/status.h"

namespace otfair::data {

using common::Matrix;
using common::Result;
using common::Rng;
using common::Status;

namespace {

/// Resolves an attribute's level count: explicit wins (validated against
/// `min_levels`), otherwise Dataset::InferLevels.
Result<size_t> ResolveLevels(const std::vector<int>& labels, size_t explicit_levels,
                             size_t min_levels, const char* name) {
  size_t levels = explicit_levels;
  if (levels == 0) levels = Dataset::InferLevels(labels);
  if (levels < min_levels)
    return Status::InvalidArgument(std::string(name) + "_levels must be >= " +
                                   std::to_string(min_levels));
  if (levels > kMaxAttributeLevels)
    return Status::InvalidArgument(std::string(name) + "_levels exceeds the supported maximum");
  for (int v : labels) {
    if (v < 0 || static_cast<size_t>(v) >= levels)
      return Status::InvalidArgument(std::string(name) + " labels must lie in [0, " +
                                     std::to_string(levels) + ")");
  }
  return levels;
}

}  // namespace

size_t Dataset::InferLevels(const std::vector<int>& labels) {
  int max_label = 0;
  for (int v : labels) max_label = std::max(max_label, v);
  return std::max<size_t>(static_cast<size_t>(max_label) + 1, 2);
}

Result<Dataset> Dataset::Create(Matrix features, std::vector<int> s, std::vector<int> u,
                                std::vector<std::string> feature_names, std::vector<int> outcome,
                                size_t s_levels, size_t u_levels) {
  const size_t n = features.rows();
  if (n == 0) return Status::InvalidArgument("dataset must have at least one row");
  if (s.size() != n || u.size() != n)
    return Status::InvalidArgument("label vectors must match the number of rows");
  if (!outcome.empty() && outcome.size() != n)
    return Status::InvalidArgument("outcome vector must match the number of rows");
  if (feature_names.size() != features.cols())
    return Status::InvalidArgument("feature_names must match the number of feature columns");
  auto resolved_s = ResolveLevels(s, s_levels, 2, "s");
  if (!resolved_s.ok()) return resolved_s.status();
  auto resolved_u = ResolveLevels(u, u_levels, 1, "u");
  if (!resolved_u.ok()) return resolved_u.status();
  for (size_t i = 0; i < n; ++i) {
    if (!outcome.empty() && outcome[i] != 0 && outcome[i] != 1)
      return Status::InvalidArgument("outcomes must be binary");
  }
  Dataset out;
  out.features_ = std::move(features);
  out.s_ = std::move(s);
  out.u_ = std::move(u);
  out.y_ = std::move(outcome);
  out.feature_names_ = std::move(feature_names);
  out.s_levels_ = *resolved_s;
  out.u_levels_ = *resolved_u;
  return out;
}

std::vector<double> Dataset::Row(size_t i) const {
  OTFAIR_CHECK_LT(i, size());
  return std::vector<double>(features_.row(i), features_.row(i) + dim());
}

Status Dataset::CheckFinite() const {
  const double* values = features_.data();
  const size_t n = size() * dim();
  // A value is not finite when its exponent field is all ones, which is
  // when the field plus one carries into the sign bit. AND, ADD and OR
  // vectorize on any x86-64, where a loop of std::isfinite does not.
  constexpr uint64_t kExponent = 0x7FF0000000000000;
  constexpr uint64_t kExponentOne = 0x0010000000000000;
  uint64_t carries = 0;
  for (size_t i = 0; i < n; ++i)
    carries |= (std::bit_cast<uint64_t>(values[i]) & kExponent) + kExponentOne;
  if (carries >> 63 == 0) return Status::Ok();
  const size_t i = static_cast<size_t>(
      std::find_if(values, values + n, [](double v) { return !std::isfinite(v); }) - values);
  return Status::InvalidArgument("feature " + std::to_string(i % dim()) + " of row " +
                                 std::to_string(i / dim()) + " is not finite");
}

std::vector<GroupKey> Dataset::Groups() const {
  std::vector<GroupKey> out;
  out.reserve(u_levels_ * s_levels_);
  for (size_t u = 0; u < u_levels_; ++u) {
    for (size_t s = 0; s < s_levels_; ++s)
      out.push_back(GroupKey{static_cast<int>(u), static_cast<int>(s)});
  }
  return out;
}

std::vector<size_t> Dataset::GroupIndices(const GroupKey& group) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < size(); ++i) {
    if (u_[i] == group.u && s_[i] == group.s) out.push_back(i);
  }
  return out;
}

std::vector<std::vector<size_t>> Dataset::GroupIndexBuckets() const {
  std::vector<std::vector<size_t>> buckets(u_levels_ * s_levels_);
  for (size_t i = 0; i < size(); ++i)
    buckets[static_cast<size_t>(u_[i]) * s_levels_ + static_cast<size_t>(s_[i])].push_back(i);
  return buckets;
}

std::vector<size_t> Dataset::UIndices(int u) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < size(); ++i) {
    if (u_[i] == u) out.push_back(i);
  }
  return out;
}

std::vector<double> Dataset::FeatureColumn(size_t k, const std::vector<size_t>& indices) const {
  OTFAIR_CHECK_LT(k, dim());
  std::vector<double> out;
  out.reserve(indices.size());
  for (size_t i : indices) {
    OTFAIR_CHECK_LT(i, size());
    out.push_back(features_(i, k));
  }
  return out;
}

std::vector<double> Dataset::FeatureColumn(size_t k) const {
  OTFAIR_CHECK_LT(k, dim());
  std::vector<double> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(features_(i, k));
  return out;
}

std::map<GroupKey, size_t> Dataset::GroupCounts() const {
  std::map<GroupKey, size_t> counts;
  for (const GroupKey& g : Groups()) counts[g] = 0;
  for (size_t i = 0; i < size(); ++i) ++counts[GroupKey{u_[i], s_[i]}];
  return counts;
}

double Dataset::ProportionU1() const { return ProportionU(1); }

double Dataset::ProportionS1GivenU(int u) const { return ProportionSGivenU(1, u); }

double Dataset::ProportionU(int level) const {
  size_t count = 0;
  for (int u : u_) count += static_cast<size_t>(u == level);
  return static_cast<double>(count) / static_cast<double>(size());
}

double Dataset::ProportionSGivenU(int level, int u) const {
  size_t in_group = 0;
  size_t hits = 0;
  for (size_t i = 0; i < size(); ++i) {
    if (u_[i] == u) {
      ++in_group;
      hits += static_cast<size_t>(s_[i] == level);
    }
  }
  return in_group == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(in_group);
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out;
  out.features_ = Matrix(indices.size(), dim());
  out.s_.reserve(indices.size());
  out.u_.reserve(indices.size());
  if (has_outcome()) out.y_.reserve(indices.size());
  out.feature_names_ = feature_names_;
  out.s_levels_ = s_levels_;
  out.u_levels_ = u_levels_;
  for (size_t r = 0; r < indices.size(); ++r) {
    const size_t i = indices[r];
    OTFAIR_CHECK_LT(i, size());
    for (size_t k = 0; k < dim(); ++k) out.features_(r, k) = features_(i, k);
    out.s_.push_back(s_[i]);
    out.u_.push_back(u_[i]);
    if (has_outcome()) out.y_.push_back(y_[i]);
  }
  return out;
}

Result<std::pair<Dataset, Dataset>> SplitResearchArchive(const Dataset& dataset,
                                                         size_t n_research, Rng& rng) {
  if (n_research == 0 || n_research >= dataset.size())
    return Status::InvalidArgument("research size must be in (0, dataset size)");
  std::vector<size_t> perm = rng.Permutation(dataset.size());
  std::vector<size_t> research(perm.begin(), perm.begin() + static_cast<long>(n_research));
  std::vector<size_t> archive(perm.begin() + static_cast<long>(n_research), perm.end());
  return std::make_pair(dataset.Subset(research), dataset.Subset(archive));
}

}  // namespace otfair::data
