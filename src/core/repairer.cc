#include "core/repairer.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/simd.h"
#include "common/status.h"
#include "obs/trace.h"

namespace otfair::core {

using common::Result;
using common::Status;

namespace {
/// RepairRows' accessor over a dataset with separately supplied s-labels:
/// row i is repaired in place in `out` from `Rng::ForStream(seed, i)`.
struct DatasetRows {
  const data::Dataset& in;
  const std::vector<int>& s_labels;
  data::Dataset& out;
  uint64_t seed;

  bool skip(size_t) const { return false; }
  int u(size_t i) const { return in.u(i); }
  int s(size_t i) const { return s_labels[i]; }
  double feature(size_t i, size_t k) const { return in.feature(i, k); }
  void set_feature(size_t i, size_t k, double value) const { out.set_feature(i, k, value); }
  common::Rng rng(size_t i) const { return common::Rng::ForStream(seed, i); }
};

/// Soft repair: row i's generator resumes after its class draw.
struct SoftRows : DatasetRows {
  const std::vector<double>& pr_s1;

  common::Rng rng(size_t i) const {
    common::Rng rng = common::Rng::ForStream(seed, i);
    rng.Bernoulli(pr_s1[i]);
    return rng;
  }
};
}  // namespace

Result<OffSampleRepairer> OffSampleRepairer::Create(RepairPlanSet plans,
                                                    const RepairOptions& options) {
  if (!(options.strength >= 0.0 && options.strength <= 1.0))
    return Status::InvalidArgument("strength must lie in [0, 1]");
  if (options.threads < 0)
    return Status::InvalidArgument("threads must be >= 1 (or 0 for the process default)");
  Status valid = plans.Validate(1e-5);
  if (!valid.ok()) return valid;
  OffSampleRepairer repairer(std::move(plans), options);
  OTFAIR_RETURN_IF_ERROR(repairer.BuildTables());
  return repairer;
}

OffSampleRepairer::OffSampleRepairer(RepairPlanSet plans, const RepairOptions& options)
    : plans_(std::move(plans)), options_(options), rng_(options.seed) {}

Status OffSampleRepairer::BuildTables() {
  const size_t dim = plans_.dim();
  const size_t s_levels = plans_.s_levels();
  tables_.resize(plans_.u_levels() * s_levels * dim);
  // Slot i holds channel (u, s, k) with i = (u * |S| + s) * dim + k.
  auto channel_of = [&](size_t i) -> const ChannelPlan& {
    return plans_.At(static_cast<int>(i / (s_levels * dim)), i % dim);
  };
  auto plan_of = [&](size_t i) -> const ot::SparsePlan& {
    return channel_of(i).plan[(i / dim) % s_levels];
  };
  // Every slot's storage is allocated here, on the calling thread: blocks
  // the pool workers allocate come from their own malloc arenas, which
  // raised a design's peak RSS by 7-12 %.
  for (size_t i = 0; i < tables_.size(); ++i) {
    const size_t nq = channel_of(i).grid.size();
    tables_[i].alias.Reserve(nq, plan_of(i).nnz());
    tables_[i].conditional_mean.assign(nq, 0.0);
  }
  // Each task fills only its own slot, and the first failure in slot
  // order is returned, so neither depends on the schedule.
  return common::parallel::ParallelForStatus(
      0, tables_.size(),
      [&](size_t i) -> Status {
        const ChannelPlan& channel = channel_of(i);
        const ot::SparsePlan& pi = plan_of(i);
        ChannelTables& tables = tables_[i];
        const size_t nq = channel.grid.size();

        // One arena row per CSR row, over that row's support only (O(nnz)
        // for the whole channel; AppendRow reads the CSR value span in
        // place), with the grid columns stored as slot payloads so a draw
        // never touches the plan again.
        for (size_t q = 0; q < nq; ++q) {
          const ot::SparsePlan::RowView row = pi.Row(q);
          OTFAIR_RETURN_IF_ERROR(tables.alias.AppendRow(row.values, row.cols, row.nnz));
          if (!tables.alias.RowHasMass(q)) continue;
          double mass = 0.0;
          double mean = 0.0;
          for (size_t t = 0; t < row.nnz; ++t) {
            mass += row.values[t];
            mean += row.values[t] * channel.grid.point(row.cols[t]);
          }
          tables.conditional_mean[q] = mean / mass;
        }
        return tables.alias.Finish();
      },
      static_cast<size_t>(options_.threads));
}

const OffSampleRepairer::ChannelTables& OffSampleRepairer::TablesFor(int u, int s,
                                                                     size_t k) const {
  OTFAIR_CHECK(u >= 0 && static_cast<size_t>(u) < plans_.u_levels());
  OTFAIR_CHECK(s >= 0 && static_cast<size_t>(s) < plans_.s_levels());
  OTFAIR_CHECK_LT(k, plans_.dim());
  return tables_[(static_cast<size_t>(u) * plans_.s_levels() + static_cast<size_t>(s)) *
                     plans_.dim() +
                 k];
}

double OffSampleRepairer::RepairValue(int u, int s, size_t k, double x) {
  return RepairValue(u, s, k, x, rng_);
}

double OffSampleRepairer::RepairValue(int u, int s, size_t k, double x, common::Rng& rng) {
  const ChannelTables& tables = TablesFor(u, s, k);
  OTFAIR_CHECK(std::isfinite(x)) << "RepairValue needs a finite value";
  const ChannelPlan& channel = plans_.At(u, k);
  const SupportGrid::Location loc = channel.grid.Locate(x);
  ++stats_.values_repaired;
  if (loc.clamped) ++stats_.values_clamped;
  // One value: the scalar draw on the caller's generator, without the
  // kernel table's dispatch or a copy of the generator's words.
  if (options_.mode == TransportMode::kStochastic)
    return common::simd::TransportRecord(TransportView(channel, tables), loc.lower, loc.tau, x,
                                         rng, stats_.empty_row_fallbacks);
  const uint32_t lower = static_cast<uint32_t>(loc.lower);
  double repaired;
  Transport(channel, tables,
            {.lower = &lower, .tau = &loc.tau, .x = &x, .out = &repaired, .count = 1}, stats_);
  return repaired;
}

common::simd::TransportChannel OffSampleRepairer::TransportView(
    const ChannelPlan& channel, const ChannelTables& tables) const {
  return {.points = channel.grid.points().data(),
          .rows = channel.grid.size(),
          .offsets = tables.alias.offsets(),
          .fallback = tables.alias.fallback(),
          .slots = tables.alias.slots(),
          .strength = options_.strength};
}

void OffSampleRepairer::Transport(const ChannelPlan& channel, const ChannelTables& tables,
                                  const common::simd::TransportRecords& records,
                                  RepairStats& stats) const {
  if (options_.mode == TransportMode::kStochastic) {
    // Algorithm 2 lines 6-9: Bernoulli neighbour choice, then one draw from
    // the normalized plan row (Eq. 15), whose arena slot carries the grid
    // column payload.
    stats.empty_row_fallbacks +=
        common::simd::Active().transport(TransportView(channel, tables), records);
    return;
  }
  // Deterministic ablation: tau-weighted mix of neighbouring rows'
  // conditional means, then the partial-repair blend.
  const size_t nq = channel.grid.size();
  const double* tau = records.tau;
  for (size_t t = 0; t < records.count; ++t) {
    size_t q0 = records.lower[t];
    size_t q1 = std::min(q0 + 1, nq - 1);
    if (!tables.alias.RowHasMass(q0)) {
      ++stats.empty_row_fallbacks;
      q0 = tables.alias.fallback()[q0];
    }
    if (!tables.alias.RowHasMass(q1)) {
      ++stats.empty_row_fallbacks;
      q1 = tables.alias.fallback()[q1];
    }
    const double transported =
        (1.0 - tau[t]) * tables.conditional_mean[q0] + tau[t] * tables.conditional_mean[q1];
    records.out[t] = (1.0 - options_.strength) * records.x[t] + options_.strength * transported;
  }
}

void OffSampleRepairer::RepairSpan(int u, int s, size_t k, const double* xs, size_t count,
                                   uint64_t* const streams[4], double* out, RepairStats& stats,
                                   SpanScratch& scratch) const {
  OTFAIR_TRACE_SPAN("repair_span");
  const ChannelPlan& channel = plans_.At(u, k);
  const ChannelTables& tables = TablesFor(u, s, k);

  // Pass 1: locate every record on the grid. Pure arithmetic, no table
  // traffic, so it pipelines independently of the lookup pass.
  scratch.q.resize(count);
  scratch.tau.resize(count);
  stats.values_repaired += count;
  for (size_t t = 0; t < count; ++t) {
    const SupportGrid::Location loc = channel.grid.Locate(xs[t]);
    scratch.q[t] = static_cast<uint32_t>(loc.lower);
    scratch.tau[t] = loc.tau;
    if (loc.clamped) ++stats.values_clamped;
  }

  // Pass 2: the draws, four records per vector on the AVX2 table.
  Transport(channel, tables,
            {.lower = scratch.q.data(),
             .tau = scratch.tau.data(),
             .x = xs,
             .state = {streams[0], streams[1], streams[2], streams[3]},
             .out = out,
             .count = count},
            stats);
}

double OffSampleRepairer::RepairValueSoft(int u, double pr_s1, size_t k, double x) {
  OTFAIR_CHECK(pr_s1 >= 0.0 && pr_s1 <= 1.0);
  OTFAIR_CHECK(std::isfinite(x)) << "RepairValueSoft needs a finite value";
  // Soft labels are the binary probabilistic-attribute mode (§VI); the
  // multi-group pipeline uses hard categorical labels.
  OTFAIR_CHECK_EQ(plans_.s_levels(), 2u);
  const int s = rng_.Bernoulli(pr_s1) ? 1 : 0;
  return RepairValue(u, s, k, x);
}

Result<data::Dataset> OffSampleRepairer::RepairDataset(const data::Dataset& dataset) {
  return RepairDatasetWithLabels(dataset, dataset.s_labels());
}

Result<data::Dataset> OffSampleRepairer::RepairDatasetWithLabels(
    const data::Dataset& dataset, const std::vector<int>& s_labels) {
  OTFAIR_RETURN_IF_ERROR(plans_.CheckRepairInput(dataset, s_labels));
  data::Dataset repaired = dataset.Clone();
  stats_ += RepairRows(dataset.size(), DatasetRows{dataset, s_labels, repaired, options_.seed});
  return repaired;
}

Result<data::Dataset> OffSampleRepairer::RepairDatasetSoft(const data::Dataset& dataset,
                                                           const std::vector<double>& pr_s1) {
  OTFAIR_RETURN_IF_ERROR(plans_.CheckRepairInput(dataset, pr_s1));
  // One class draw per row, shared by all channels: a record is repaired
  // coherently under a single imputed protected label.
  std::vector<int> s_labels(dataset.size());
  for (size_t i = 0; i < s_labels.size(); ++i)
    s_labels[i] = common::Rng::ForStream(options_.seed, i).Bernoulli(pr_s1[i]) ? 1 : 0;
  data::Dataset repaired = dataset.Clone();
  stats_ += RepairRows(dataset.size(),
                       SoftRows{{dataset, s_labels, repaired, options_.seed}, pr_s1});
  return repaired;
}

}  // namespace otfair::core
