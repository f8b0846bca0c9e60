#include "fairness/emetric.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"
#include "stats/divergence.h"
#include "stats/kde.h"

namespace otfair::fairness {

using common::Result;
using common::Status;

namespace {

/// Uniform grid of `count` points over [lo, hi] (single midpoint when
/// degenerate), as GaussianKde::PmfOnGrid requires.
std::vector<double> UniformGrid(double lo, double hi, size_t count) {
  std::vector<double> grid;
  grid.reserve(count);
  if (count == 1 || !(hi > lo)) {
    grid.push_back(0.5 * (lo + hi));
    return grid;
  }
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (size_t i = 0; i < count; ++i) grid.push_back(lo + step * static_cast<double>(i));
  return grid;
}

/// One class sample's pmf on a UniformGrid, under Silverman's bandwidth
/// for that grid's spacing (which keeps a constant class from underflowing).
Result<std::vector<double>> SilvermanPmf(std::vector<double> samples,
                                         const std::vector<double>& grid) {
  const double step = grid.size() > 1 ? grid[1] - grid[0] : 0.0;
  auto kde = stats::GaussianKde::FitSilverman(std::move(samples), step);
  if (!kde.ok()) return kde.status();
  return kde->PmfOnGrid(grid);
}

}  // namespace

Result<EMetricBreakdown> FeatureEMetric(const data::Dataset& dataset, size_t k,
                                        const EMetricOptions& options) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (k >= dataset.dim()) return Status::InvalidArgument("feature index out of range");
  if (options.grid_size < 2) return Status::InvalidArgument("grid_size must be >= 2");

  const size_t s_levels = dataset.s_levels();
  const size_t u_levels = dataset.u_levels();
  EMetricBreakdown out;
  out.e_u.assign(u_levels, std::numeric_limits<double>::quiet_NaN());
  out.pr_u.assign(u_levels, 0.0);

  const double n_total = static_cast<double>(dataset.size());
  double usable_weight = 0.0;
  double weighted_e = 0.0;

  // All |U| * |S| group index sets in one dataset pass.
  const std::vector<std::vector<size_t>> groups = dataset.GroupIndexBuckets();

  for (size_t u = 0; u < u_levels; ++u) {
    // Gather the stratum's estimable s-group samples (classes below
    // min_group_size are skipped individually); the shared KDE grid spans
    // their combined range. A stratum needs at least two estimable
    // classes to yield a pair — which for the binary case reproduces the
    // original all-or-nothing two-group computation exactly.
    std::vector<std::vector<double>> samples;
    double pr_u_count = 0.0;
    for (size_t s = 0; s < s_levels; ++s) {
      const std::vector<size_t>& idx = groups[u * s_levels + s];
      pr_u_count += static_cast<double>(idx.size());
      if (idx.size() < options.min_group_size) continue;
      samples.push_back(dataset.FeatureColumn(k, idx));
    }
    const double pr_u = pr_u_count / n_total;
    out.pr_u[u] = pr_u;
    if (samples.size() < 2) {
      continue;  // stratum not estimable; weight renormalized below
    }

    double lo = samples[0][0];
    double hi = samples[0][0];
    for (const std::vector<double>& x : samples) {
      lo = std::min(lo, *std::min_element(x.begin(), x.end()));
      hi = std::max(hi, *std::max_element(x.begin(), x.end()));
    }
    const std::vector<double> grid = UniformGrid(lo, hi, options.grid_size);

    std::vector<std::vector<double>> pmfs;
    pmfs.reserve(samples.size());
    for (std::vector<double>& x : samples) {
      auto pmf = SilvermanPmf(std::move(x), grid);
      if (!pmf.ok()) return pmf.status();
      pmfs.push_back(std::move(*pmf));
    }

    // Max over pairs: the worst-separated class pair is the stratum's E.
    double e_u = 0.0;
    for (size_t a = 0; a < pmfs.size(); ++a) {
      for (size_t b = a + 1; b < pmfs.size(); ++b) {
        auto pair_e = stats::SymmetrizedKl(pmfs[a], pmfs[b], options.kl_floor);
        if (!pair_e.ok()) return pair_e.status();
        e_u = std::max(e_u, *pair_e);
      }
    }

    out.e_u[u] = e_u;
    usable_weight += pr_u;
    weighted_e += pr_u * e_u;
  }

  if (usable_weight <= 0.0)
    return Status::FailedPrecondition(
        "no u-stratum has enough populated s-groups; E is undefined");
  out.e = weighted_e / usable_weight;
  return out;
}

Result<std::vector<double>> OneVsRestEMetric(const data::Dataset& dataset, int u, size_t k,
                                             const EMetricOptions& options) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (k >= dataset.dim()) return Status::InvalidArgument("feature index out of range");
  if (u < 0 || static_cast<size_t>(u) >= dataset.u_levels())
    return Status::InvalidArgument("u level out of range");
  if (options.grid_size < 2) return Status::InvalidArgument("grid_size must be >= 2");

  const size_t s_levels = dataset.s_levels();
  std::vector<std::vector<double>> per_level(s_levels);
  std::vector<double> pooled;
  for (size_t s = 0; s < s_levels; ++s) {
    per_level[s] =
        dataset.FeatureColumn(k, dataset.GroupIndices({u, static_cast<int>(s)}));
    pooled.insert(pooled.end(), per_level[s].begin(), per_level[s].end());
  }
  if (pooled.empty()) return Status::FailedPrecondition("u stratum is empty");
  const double lo = *std::min_element(pooled.begin(), pooled.end());
  const double hi = *std::max_element(pooled.begin(), pooled.end());
  const std::vector<double> grid = UniformGrid(lo, hi, options.grid_size);

  std::vector<double> out(s_levels, std::numeric_limits<double>::quiet_NaN());
  for (size_t s = 0; s < s_levels; ++s) {
    // Rest = the pooled complement of level s.
    std::vector<double> rest;
    rest.reserve(pooled.size() - per_level[s].size());
    for (size_t other = 0; other < s_levels; ++other) {
      if (other == s) continue;
      rest.insert(rest.end(), per_level[other].begin(), per_level[other].end());
    }
    if (per_level[s].size() < options.min_group_size || rest.size() < options.min_group_size)
      continue;
    auto pmf_s = SilvermanPmf(per_level[s], grid);
    if (!pmf_s.ok()) return pmf_s.status();
    auto pmf_rest = SilvermanPmf(std::move(rest), grid);
    if (!pmf_rest.ok()) return pmf_rest.status();
    auto e = stats::SymmetrizedKl(*pmf_s, *pmf_rest, options.kl_floor);
    if (!e.ok()) return e.status();
    out[s] = *e;
  }
  return out;
}

Result<double> FeatureE(const data::Dataset& dataset, size_t k, const EMetricOptions& options) {
  auto breakdown = FeatureEMetric(dataset, k, options);
  if (!breakdown.ok()) return breakdown.status();
  return breakdown->e;
}

Result<double> AggregateE(const data::Dataset& dataset, const EMetricOptions& options) {
  if (dataset.dim() == 0) return Status::InvalidArgument("dataset has no features");
  double acc = 0.0;
  for (size_t k = 0; k < dataset.dim(); ++k) {
    auto e = FeatureE(dataset, k, options);
    if (!e.ok()) return e.status();
    acc += *e;
  }
  return acc / static_cast<double>(dataset.dim());
}

}  // namespace otfair::fairness
