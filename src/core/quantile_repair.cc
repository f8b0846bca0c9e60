#include "core/quantile_repair.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/status.h"

namespace otfair::core {

using common::Result;
using common::Status;

namespace {

/// Builds the midpoint-interpolated CDF of a pmf on grid points: the mass of
/// state q is centred at the grid point, so F(zeta_q) = cum_{q-1} + w_q / 2.
/// Knots with (numerically) zero incremental mass are merged so the table is
/// strictly increasing and invertible.
void BuildCdfTable(const ot::DiscreteMeasure& marginal, std::vector<double>* knots,
                   std::vector<double>* cdf) {
  knots->clear();
  cdf->clear();
  double cum = 0.0;
  for (size_t q = 0; q < marginal.size(); ++q) {
    const double w = marginal.weight_at(q);
    const double value = cum + 0.5 * w;
    cum += w;
    if (!cdf->empty() && value <= cdf->back() + 1e-15) continue;  // merge flats
    knots->push_back(marginal.support_at(q));
    cdf->push_back(value);
  }
  OTFAIR_CHECK(!knots->empty());
}

}  // namespace

double QuantileMapRepairer::CdfTable::Evaluate(double x) const {
  if (x <= knots.front()) return cdf.front();
  if (x >= knots.back()) return cdf.back();
  const auto it = std::upper_bound(knots.begin(), knots.end(), x);
  const size_t hi = static_cast<size_t>(it - knots.begin());
  const size_t lo = hi - 1;
  const double frac = (x - knots[lo]) / (knots[hi] - knots[lo]);
  return cdf[lo] + frac * (cdf[hi] - cdf[lo]);
}

double QuantileMapRepairer::CdfTable::Quantile(double q) const {
  if (q <= cdf.front()) return knots.front();
  if (q >= cdf.back()) return knots.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), q);
  const size_t hi = static_cast<size_t>(it - cdf.begin());
  const size_t lo = hi - 1;
  const double frac = (q - cdf[lo]) / (cdf[hi] - cdf[lo]);
  return knots[lo] + frac * (knots[hi] - knots[lo]);
}

Result<QuantileMapRepairer> QuantileMapRepairer::Create(RepairPlanSet plans, double strength) {
  if (!(strength >= 0.0 && strength <= 1.0))
    return Status::InvalidArgument("strength must lie in [0, 1]");
  Status valid = plans.Validate(1e-5);
  if (!valid.ok()) return valid;
  QuantileMapRepairer repairer(std::move(plans), strength);
  repairer.BuildTables();
  return repairer;
}

void QuantileMapRepairer::BuildTables() {
  const size_t dim = plans_.dim();
  const size_t s_levels = plans_.s_levels();
  const size_t u_levels = plans_.u_levels();
  source_.resize(u_levels * s_levels * dim);
  target_.resize(u_levels * dim);
  for (size_t u = 0; u < u_levels; ++u) {
    for (size_t k = 0; k < dim; ++k) {
      const ChannelPlan& channel = plans_.At(static_cast<int>(u), k);
      for (size_t s = 0; s < s_levels; ++s) {
        CdfTable& table = source_[(u * s_levels + s) * dim + k];
        BuildCdfTable(channel.marginal[s], &table.knots, &table.cdf);
      }
      CdfTable& target = target_[u * dim + k];
      BuildCdfTable(channel.barycenter, &target.knots, &target.cdf);
    }
  }
}

const QuantileMapRepairer::CdfTable& QuantileMapRepairer::SourceCdf(int u, int s,
                                                                    size_t k) const {
  OTFAIR_CHECK(u >= 0 && static_cast<size_t>(u) < plans_.u_levels());
  OTFAIR_CHECK(s >= 0 && static_cast<size_t>(s) < plans_.s_levels());
  OTFAIR_CHECK_LT(k, plans_.dim());
  return source_[(static_cast<size_t>(u) * plans_.s_levels() + static_cast<size_t>(s)) *
                     plans_.dim() +
                 k];
}

const QuantileMapRepairer::CdfTable& QuantileMapRepairer::TargetCdf(int u, size_t k) const {
  OTFAIR_CHECK(u >= 0 && static_cast<size_t>(u) < plans_.u_levels());
  OTFAIR_CHECK_LT(k, plans_.dim());
  return target_[static_cast<size_t>(u) * plans_.dim() + k];
}

double QuantileMapRepairer::RepairValue(int u, int s, size_t k, double x) const {
  // Evaluate(NaN) fails both end checks and indexes past the table.
  OTFAIR_CHECK(std::isfinite(x)) << "RepairValue needs a finite value";
  const double q = SourceCdf(u, s, k).Evaluate(x);
  const double transported = TargetCdf(u, k).Quantile(q);
  return (1.0 - strength_) * x + strength_ * transported;
}

double QuantileMapRepairer::RepairValueSoft(int u, double pr_s1, size_t k, double x) const {
  OTFAIR_CHECK(pr_s1 >= 0.0 && pr_s1 <= 1.0);
  OTFAIR_CHECK_EQ(plans_.s_levels(), 2u);
  const double repaired0 = RepairValue(u, 0, k, x);
  const double repaired1 = RepairValue(u, 1, k, x);
  return (1.0 - pr_s1) * repaired0 + pr_s1 * repaired1;
}

Result<data::Dataset> QuantileMapRepairer::RepairDataset(const data::Dataset& dataset) const {
  return RepairDatasetWithLabels(dataset, dataset.s_labels());
}

Result<data::Dataset> QuantileMapRepairer::RepairDatasetWithLabels(
    const data::Dataset& dataset, const std::vector<int>& s_labels) const {
  OTFAIR_RETURN_IF_ERROR(plans_.CheckRepairInput(dataset, s_labels));
  data::Dataset repaired = dataset.Clone();
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (size_t k = 0; k < dataset.dim(); ++k) {
      repaired.set_feature(
          i, k, RepairValue(dataset.u(i), s_labels[i], k, dataset.feature(i, k)));
    }
  }
  return repaired;
}

Result<data::Dataset> QuantileMapRepairer::RepairDatasetSoft(
    const data::Dataset& dataset, const std::vector<double>& pr_s1) const {
  OTFAIR_RETURN_IF_ERROR(plans_.CheckRepairInput(dataset, pr_s1));
  data::Dataset repaired = dataset.Clone();
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (size_t k = 0; k < dataset.dim(); ++k) {
      repaired.set_feature(
          i, k, RepairValueSoft(dataset.u(i), pr_s1[i], k, dataset.feature(i, k)));
    }
  }
  return repaired;
}

}  // namespace otfair::core
