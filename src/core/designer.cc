#include "core/designer.h"

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "obs/trace.h"
#include "ot/barycenter.h"
#include "ot/solver.h"

namespace otfair::core {

using common::Result;
using common::Status;

namespace {

/// Steps (i)-(iv) of Algorithm 1 for one (u, k) channel from its |S|
/// s-conditional samples, whose union spans the u-stratum. Research
/// columns and sketch pseudo-samples both arrive here, so plan geometry is
/// independent of where the samples came from.
Status DesignChannel(const DesignOptions& options, const ot::Solver& solver,
                     const std::vector<double>& lam,
                     const std::vector<const std::vector<double>*>& samples_by_s,
                     ChannelPlan* channel) {
  OTFAIR_TRACE_SPAN("design_channel");
  const size_t s_levels = samples_by_s.size();
  // (i) Interpolated support over the stratum's range (Algorithm 1,
  // lines 3-5).
  std::vector<double> stratum;
  for (const std::vector<double>* samples : samples_by_s)
    stratum.insert(stratum.end(), samples->begin(), samples->end());
  auto grid = SupportGrid::FromSamples(stratum, options.n_q);
  if (!grid.ok()) return grid.status();
  channel->grid = std::move(*grid);

  // (ii) KDE-interpolated s-conditional marginals (line 8, Eq. 11).
  for (size_t s = 0; s < s_levels; ++s) {
    auto marginal = InterpolateMarginal(*samples_by_s[s], channel->grid, options.marginal);
    if (!marginal.ok()) return marginal.status();
    channel->marginal[s] = std::move(*marginal);
  }

  // (iii) Barycentric repair target on the same support (line 9, Eq. 7):
  // the weighted-quantile barycenter F^{-1} = sum_s lambda_s F_s^{-1}, one
  // sweep for every |S|. At |S| = 2 the weights are {1 - t, t} and the
  // sweep is the paper's t-geodesic point, bit for bit.
  auto barycenter = ot::QuantileBarycenterOnGrid(channel->marginal, lam, channel->grid.points());
  if (!barycenter.ok()) return barycenter.status();
  channel->barycenter = std::move(*barycenter);

  // (iv) The |S| OT plans mu_s -> nu (lines 10-11, Eq. 13). Marginals
  // and barycentre all live on the sorted grid, so the backend's 1-D
  // solve applies directly and its entries index grid states. The
  // sparse-native solve keeps the monotone staircase (and the exact
  // solver's support set) in CSR form end to end — nothing densifies.
  for (size_t s = 0; s < s_levels; ++s) {
    OTFAIR_TRACE_SPAN("channel_solve");
    auto plan = solver.Solve1DSparse(channel->marginal[s], channel->barycenter);
    if (!plan.ok()) return plan.status();
    channel->plan[s] = std::move(*plan);
  }
  return Status::Ok();
}

}  // namespace

Result<RepairPlanSet> DesignDistributionalRepair(const data::Dataset& research,
                                                 const DesignOptions& options) {
  if (research.empty()) return Status::InvalidArgument("empty research dataset");
  // Every (u, s) group's column of every feature, in row order: the
  // (u * s_levels + s) * dim + k channel order.
  std::vector<std::vector<double>> channels;
  for (const std::vector<size_t>& rows : research.GroupIndexBuckets())
    for (size_t k = 0; k < research.dim(); ++k)
      channels.push_back(research.FeatureColumn(k, rows));
  return DesignFromChannelSamples(research.dim(), research.feature_names(), research.s_levels(),
                                  research.u_levels(), channels, options);
}

Result<RepairPlanSet> DesignFromChannelSamples(
    size_t dim, std::vector<std::string> feature_names, size_t s_levels, size_t u_levels,
    const std::vector<std::vector<double>>& channels, const DesignOptions& options) {
  if (dim == 0) return Status::InvalidArgument("dim must be >= 1");
  if (s_levels < 2) return Status::InvalidArgument("s_levels must be >= 2");
  if (u_levels < 1) return Status::InvalidArgument("u_levels must be >= 1");
  if (channels.size() != u_levels * s_levels * dim)
    return Status::InvalidArgument(
        "expected " + std::to_string(u_levels * s_levels * dim) + " channels (" +
        "(u * s_levels + s) * dim + k order), got " + std::to_string(channels.size()));
  if (options.n_q < 2) return Status::InvalidArgument("n_q must be >= 2");
  if (!(options.target_t >= 0.0 && options.target_t <= 1.0))
    return Status::InvalidArgument("target_t must lie in [0, 1]");
  if (options.threads < 0)
    return Status::InvalidArgument("threads must be >= 1 (or 0 for the process default)");

  // Resolve the barycentric weights (see ResolveLambdas: the binary
  // default {1 - t, t} keeps the paper's single-knob geodesic
  // parameterization; normalization leaves it unchanged). The normalized
  // weights drive the barycenters below.
  auto lambdas = ResolveLambdas(options.lambdas, options.target_t, s_levels);
  if (!lambdas.ok()) return lambdas.status();
  RepairPlanSet plans(dim, std::move(feature_names), s_levels, u_levels);
  if (Status status = plans.set_lambdas(std::move(*lambdas)); !status.ok()) return status;
  // The persisted t metadata is the geodesic position designed at, which
  // only |S| = 2 has: the weight of s = 1, so explicit binary lambdas
  // override options.target_t.
  plans.set_target_t(s_levels == 2 ? plans.lambdas()[1] : options.target_t);

  // A thin channel cannot estimate its conditional marginal; it is
  // rejected before any solver work.
  for (size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].size() >= options.min_group_size) continue;
    return Status::FailedPrecondition(
        "channel (u=" + std::to_string(c / (s_levels * dim)) +
        ", s=" + std::to_string(c / dim % s_levels) + ", k=" + std::to_string(c % dim) +
        ") has " + std::to_string(channels[c].size()) + " samples, below min_group_size " +
        std::to_string(options.min_group_size) + "; collect more data");
  }

  // The d * |U| (u, k) channel designs are independent: each task writes
  // only its own ChannelPlan slot, so any schedule produces bit-identical
  // plans (and a deterministic first error). Task order is u-major,
  // k-minor.
  const ot::Solver& solver = options.solver ? *options.solver : *ot::DefaultSolver();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<char> on_worker(u_levels * dim, 0);
  Status status = common::parallel::ParallelForStatus(
      0, u_levels * dim,
      [&](size_t task) {
        on_worker[task] = std::this_thread::get_id() != caller;
        const size_t u = task / dim;
        const size_t k = task % dim;
        std::vector<const std::vector<double>*> samples_by_s;
        for (size_t s = 0; s < s_levels; ++s)
          samples_by_s.push_back(&channels[(u * s_levels + s) * dim + k]);
        return DesignChannel(options, solver, plans.lambdas(), samples_by_s,
                             &plans.At(static_cast<int>(u), k));
      },
      static_cast<size_t>(options.threads));
  if (!status.ok()) return status;
  // A channel designed on a pool worker lives in that worker's malloc
  // arena. A caller that keeps the previous plan alive while it designs
  // the next (a repairer, a serving reload) would leave each worker arena
  // holding parts of two plan generations, split as the schedule fell.
  // Such channels are copied here, on the calling thread, and the worker
  // blocks are freed for the next design (as OffSampleRepairer::
  // BuildTables allocates its tables on the calling thread).
  for (size_t task = 0; task < on_worker.size(); ++task) {
    if (!on_worker[task]) continue;
    ChannelPlan& channel = plans.At(static_cast<int>(task / dim), task % dim);
    channel = ChannelPlan(channel);
  }
  return plans;
}

}  // namespace otfair::core
