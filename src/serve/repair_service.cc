#include "serve/repair_service.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace otfair::serve {

using common::Result;
using common::Status;

/// The unit of hot-swap: everything a request needs, built once per
/// (re)load and immutable afterwards except the observed state behind
/// `observed_mu`. Readers hold it through shared_ptr, so a snapshot
/// outlives the swap for as long as any in-flight request still uses it.
struct RepairService::Snapshot {
  core::OffSampleRepairer repairer;
  uint64_t version;
  /// Guards `sketches`. A batch observes under it once, after its repair;
  /// health, scrapes, redesigns and checkpoints read under it.
  mutable std::mutex observed_mu;
  /// Per-channel streaming quantile sketches, indexed
  /// `(u * s_levels + s) * dim + k`, fed every valid value.
  std::vector<stats::QuantileSketch> sketches;

  Snapshot(core::OffSampleRepairer r, uint64_t v, size_t channels)
      : repairer(std::move(r)), version(v), sketches(channels) {}
};

namespace {
/// RepairRows' accessor over one batch of requests: row i is request i,
/// skipped when validation failed, with the session's row generator.
struct RequestRows {
  const RepairService& service;
  const RowRequest* requests;
  RowResponse* responses;

  bool skip(size_t i) const { return !responses[i].status.ok(); }
  int u(size_t i) const { return requests[i].u; }
  int s(size_t i) const { return requests[i].s; }
  double feature(size_t i, size_t k) const { return requests[i].features[k]; }
  void set_feature(size_t i, size_t k, double value) const { responses[i].repaired[k] = value; }
  common::Rng rng(size_t i) const {
    // The determinism contract: randomness is a pure function of
    // (seed, session, row) — see RowRequest.
    return common::Rng::ForStream(service.SessionSeed(requests[i].session_id),
                                  requests[i].row_index);
  }
};
}  // namespace

std::string ServiceHealth::ToJson() const {
  common::JsonWriter w;
  w.BeginObject()
      .Key("healthy").Bool(!drifted && !degraded)
      .Key("state").String(state())
      .Key("drifted").Bool(drifted)
      .Key("degraded").Bool(degraded)
      .Key("worst_w1").Double(worst_w1)
      .Key("worst_out_of_range").Double(worst_out_of_range)
      .Key("values_observed").Uint(values_observed)
      .Key("plan_version").Uint(plan_version)
      .Key("reloads_total").Uint(reloads_total)
      .Key("reloads_failed").Uint(reloads_failed)
      .Key("recovered").Bool(recovered)
      .Key("recovered_generation").Uint(recovered_generation)
      .Key("checkpoints_written").Uint(checkpoints_written)
      .Key("checkpoints_failed").Uint(checkpoints_failed)
      .EndObject();
  return w.str();
}

RepairService::RepairService(size_t dim, size_t s_levels, size_t u_levels,
                             const ServiceOptions& options)
    : dim_(dim), s_levels_(s_levels), u_levels_(u_levels), options_(options) {}

RepairService::~RepairService() = default;

Result<std::shared_ptr<RepairService::Snapshot>> RepairService::BuildSnapshot(
    core::RepairPlanSet plans, const ServiceOptions& options, uint64_t version) {
  core::RepairOptions repair_options;
  repair_options.seed = options.seed;  // unused: serving supplies per-row rngs
  repair_options.mode = options.mode;
  repair_options.strength = options.strength;
  repair_options.threads = options.threads;
  const size_t channels = plans.u_levels() * plans.s_levels() * plans.dim();
  auto repairer = core::OffSampleRepairer::Create(std::move(plans), repair_options);
  if (!repairer.ok()) return repairer.status();
  return std::make_shared<Snapshot>(std::move(*repairer), version, channels);
}

Result<std::unique_ptr<RepairService>> RepairService::Create(core::RepairPlanSet plans,
                                                             const ServiceOptions& options) {
  const size_t dim = plans.dim();
  if (dim == 0) return Status::InvalidArgument("plan set is empty");
  if (options.initial_plan_version == 0)
    return Status::InvalidArgument("initial_plan_version must be >= 1");
  const size_t s_levels = plans.s_levels();
  const size_t u_levels = plans.u_levels();
  auto snapshot = BuildSnapshot(std::move(plans), options, options.initial_plan_version);
  if (!snapshot.ok()) return snapshot.status();
  // Bad drift options fail here, not at the first health poll.
  if (auto judged = core::JudgeDrift((*snapshot)->repairer.plans(), (*snapshot)->sketches,
                                     options.drift);
      !judged.ok())
    return judged.status();
  std::unique_ptr<RepairService> service(
      new RepairService(dim, s_levels, u_levels, options));
  service->snapshot_ = std::move(*snapshot);

  // Scrape-time callback families on the metric registry. The raw pointer
  // captures are safe: the handles unregister in ~RepairService before any
  // captured state dies.
  RepairService* raw = service.get();
  obs::Registry& registry = service->metrics_.registry();
  auto plan_version_cb = registry.AddCallback(
      "otfair_serve_plan_version", "Version of the live plan snapshot", obs::MetricKind::kGauge,
      [raw] {
        return std::vector<obs::MetricSample>{
            {"", static_cast<double>(raw->plan_version())}};
      });
  if (plan_version_cb.ok())
    service->metric_callbacks_.push_back(std::move(*plan_version_cb));
  auto drift_cb = registry.AddCallback(
      "otfair_serve_drift_channel_w1",
      "Per-channel normalized W1 drift vs the design marginal", obs::MetricKind::kGauge,
      [raw] {
        std::vector<obs::MetricSample> samples;
        for (const core::ChannelDrift& c : raw->DriftSnapshot().channels) {
          samples.push_back({"u=\"" + std::to_string(c.u) + "\",s=\"" + std::to_string(c.s) +
                                 "\",k=\"" + std::to_string(c.k) + "\"",
                             c.w1_normalized});
        }
        return samples;
      });
  if (drift_cb.ok()) service->metric_callbacks_.push_back(std::move(*drift_cb));
  auto sketch_cb = registry.AddCallback(
      "otfair_serve_sketch_count", "Values accumulated per channel quantile sketch",
      obs::MetricKind::kGauge, [raw, s_levels] {
        std::vector<obs::MetricSample> samples;
        const std::vector<stats::QuantileSketch> sketches = raw->SketchSnapshot();
        const size_t dim = raw->dim();
        for (size_t c = 0; c < sketches.size(); ++c) {
          const size_t us = c / dim;
          samples.push_back({"u=\"" + std::to_string(us / s_levels) + "\",s=\"" +
                                 std::to_string(us % s_levels) + "\",k=\"" +
                                 std::to_string(c % dim) + "\"",
                             static_cast<double>(sketches[c].count())});
        }
        return samples;
      });
  if (sketch_cb.ok()) service->metric_callbacks_.push_back(std::move(*sketch_cb));
  return service;
}

uint64_t RepairService::SessionSeed(uint64_t session_id) const {
  if (session_id == 0) return options_.seed;
  return common::Rng::ForStream(options_.seed, session_id).Next64();
}

bool RepairService::ValidateRequest(const RowRequest& request, RowResponse* response) const {
  response->session_id = request.session_id;
  response->row_index = request.row_index;
  if (request.features.size() != dim_) {
    response->repaired.clear();
    response->status = Status::InvalidArgument(
        "row has " + std::to_string(request.features.size()) + " features, plan expects " +
        std::to_string(dim_));
    return false;
  }
  if (request.u < 0 || static_cast<size_t>(request.u) >= u_levels_ || request.s < 0 ||
      static_cast<size_t>(request.s) >= s_levels_) {
    response->repaired.clear();
    response->status = Status::InvalidArgument(
        "u and s labels must lie in [0, " + std::to_string(u_levels_) + ") x [0, " +
        std::to_string(s_levels_) + ")");
    return false;
  }
  // The repair kernels take finite values only (the protocol parser
  // already refuses the rest; in-process callers reach this check).
  for (size_t k = 0; k < dim_; ++k) {
    if (!std::isfinite(request.features[k])) {
      response->repaired.clear();
      response->status =
          Status::InvalidArgument("feature " + std::to_string(k) + " is not finite");
      return false;
    }
  }
  return true;
}

Status RepairService::RepairRow(const RowRequest& request, RowResponse* response) {
  std::vector<RowResponse> responses;
  RepairBatch(&request, 1, &responses);
  *response = std::move(responses[0]);
  return response->status;
}

void RepairService::RepairBatch(const RowRequest* requests, size_t count,
                                std::vector<RowResponse>* responses) {
  // One snapshot acquisition per batch: every row of a batch is served by
  // the same plan version, and the lock amortizes to nothing.
  std::shared_ptr<Snapshot> snap = CurrentSnapshot();
  responses->resize(count);
  if (count == 0) return;
  metrics_.AddAccepted(count);
  metrics_.AddBatch();

  // Validation pass: a failed row keeps its error status and is skipped by
  // the repair; a valid one gets its output slot.
  uint64_t bad = 0;
  for (size_t i = 0; i < count; ++i) {
    RowResponse& response = (*responses)[i];
    if (ValidateRequest(requests[i], &response)) {
      response.repaired.resize(dim_);
      response.status = Status::Ok();
    } else {
      ++bad;
    }
  }
  metrics_.AddRepaired(count - bad);
  if (bad > 0) metrics_.AddInvalid(bad);

  // The offline batch routine: per-row (session, row) generators keep
  // each response a pure function of its request, so a served row is
  // bit-identical to the same row of an offline RepairDataset.
  snap->repairer.RepairRows(count, RequestRows{*this, requests, responses->data()});

  // Observation, amortized: one lock per batch, taken after the repair.
  // Concurrent batches come only from the front ends' own threads
  // (sessions, net workers), so the lock sees at most that many.
  std::lock_guard<std::mutex> lock(snap->observed_mu);
  for (size_t i = 0; i < count; ++i) {
    if (!(*responses)[i].status.ok()) continue;
    const RowRequest& request = requests[i];
    stats::QuantileSketch::AddRow(
        &snap->sketches[(static_cast<size_t>(request.u) * s_levels_ +
                         static_cast<size_t>(request.s)) *
                        dim_],
        request.features.data(), dim_);
  }
}

Status RepairService::ReloadPlan(core::RepairPlanSet plans) {
  OTFAIR_TRACE_SPAN("plan_reload");
  // Concurrent reloads serialize here and resolve last-writer-wins: each
  // successful caller reads the then-current version under the lock and
  // installs version + 1, so Version() is strictly monotone and the final
  // snapshot is the last caller's plan.
  std::lock_guard<std::mutex> lock(reload_mu_);
  Status status = [&]() -> Status {
    if (plans.dim() != dim_)
      return Status::InvalidArgument("reload plan has dim " + std::to_string(plans.dim()) +
                                     ", service serves dim " + std::to_string(dim_));
    if (plans.s_levels() != s_levels_ || plans.u_levels() != u_levels_)
      return Status::InvalidArgument(
          "reload plan has |S|=" + std::to_string(plans.s_levels()) + ", |U|=" +
          std::to_string(plans.u_levels()) + "; service serves |S|=" +
          std::to_string(s_levels_) + ", |U|=" + std::to_string(u_levels_));
    const uint64_t next_version = CurrentSnapshot()->version + 1;
    auto snapshot = BuildSnapshot(std::move(plans), options_, next_version);
    if (!snapshot.ok()) return snapshot.status();
    // The swap itself. Readers that copied the old snapshot keep it alive
    // until their request completes; this reference to it is dropped when
    // `old` leaves scope, after the lock.
    std::shared_ptr<Snapshot> old = std::move(*snapshot);
    {
      std::lock_guard<std::mutex> swap_lock(snapshot_mu_);
      snapshot_.swap(old);
    }
    return Status::Ok();
  }();
  if (!status.ok()) {
    metrics_.AddReloadFailed();
    return status;
  }
  metrics_.AddReload();
  // A fresh healthy plan supersedes any stuck self-heal verdict.
  SetDegraded(false);
  return Status::Ok();
}

Status RepairService::ReloadPlanFromFile(const std::string& path) {
  auto plans = core::RepairPlanSet::LoadFromFile(path);
  if (!plans.ok()) {
    metrics_.AddReloadFailed();
    return plans.status();
  }
  return ReloadPlan(std::move(*plans));
}

std::shared_ptr<RepairService::Snapshot> RepairService::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

uint64_t RepairService::plan_version() const {
  return CurrentSnapshot()->version;
}

RepairService::PlanGeometry RepairService::Geometry() const {
  std::shared_ptr<Snapshot> snap = CurrentSnapshot();
  const core::RepairPlanSet& plans = snap->repairer.plans();
  PlanGeometry geometry;
  geometry.feature_names = plans.feature_names();
  geometry.n_q = plans.At(0, 0).grid.size();
  geometry.lambdas = plans.lambdas();
  geometry.target_t = plans.target_t();
  return geometry;
}

std::vector<stats::QuantileSketch> RepairService::CopySketches(const Snapshot& snapshot,
                                                                core::DriftReport* drift) const {
  std::vector<stats::QuantileSketch> sketches;
  {
    std::lock_guard<std::mutex> lock(snapshot.observed_mu);
    sketches = snapshot.sketches;
  }
  if (drift != nullptr) {
    // Create judged these options against this shape; every snapshot
    // keeps the shape.
    auto report = core::JudgeDrift(snapshot.repairer.plans(), sketches, options_.drift);
    OTFAIR_CHECK(report.ok()) << report.status().ToString();
    *drift = std::move(*report);
  }
  return sketches;
}

core::DriftReport RepairService::DriftSnapshot() const {
  core::DriftReport report;
  CopySketches(*CurrentSnapshot(), &report);
  return report;
}

std::vector<stats::QuantileSketch> RepairService::SketchSnapshot(core::DriftReport* drift) const {
  return CopySketches(*CurrentSnapshot(), drift);
}

RepairService::CheckpointState RepairService::StateForCheckpoint() const {
  // ONE snapshot acquisition: plan, version, and sketches all describe the
  // same serving snapshot, even mid-reload.
  std::shared_ptr<Snapshot> snap = CurrentSnapshot();
  CheckpointState state;
  state.plan_version = snap->version;
  state.degraded = degraded();
  state.plans = snap->repairer.plans();
  std::lock_guard<std::mutex> lock(snap->observed_mu);
  state.sketches = snap->sketches;
  return state;
}

Status RepairService::RestoreObservedState(const std::vector<stats::QuantileSketch>& sketches) {
  std::shared_ptr<Snapshot> snap = CurrentSnapshot();
  std::lock_guard<std::mutex> lock(snap->observed_mu);
  if (snap->sketches.size() != sketches.size())
    return Status::InvalidArgument(
        "checkpoint carries " + std::to_string(sketches.size()) + " sketches, service has " +
        std::to_string(snap->sketches.size()) + " channels");
  for (size_t c = 0; c < sketches.size(); ++c) snap->sketches[c].Merge(sketches[c]);
  return Status::Ok();
}

ServiceHealth RepairService::Health() const {
  std::shared_ptr<Snapshot> snap = CurrentSnapshot();
  core::DriftReport report;
  CopySketches(*snap, &report);
  const MetricsSnapshot metrics = metrics_.Snapshot();
  ServiceHealth health;
  health.drifted = report.drifted;
  health.degraded = degraded();
  health.worst_w1 = report.worst_w1;
  health.worst_out_of_range = report.worst_out_of_range;
  for (const core::ChannelDrift& c : report.channels) health.values_observed += c.count;
  health.plan_version = snap->version;
  health.reloads_total = metrics.reloads;
  health.reloads_failed = metrics.reloads_failed;
  health.recovered_generation = recovered_generation();
  health.recovered = health.recovered_generation > 0;
  health.checkpoints_written = metrics.checkpoints_written;
  health.checkpoints_failed = metrics.checkpoints_failed;
  return health;
}

}  // namespace otfair::serve
