#ifndef OTFAIR_SERVE_REPAIR_SERVICE_H_
#define OTFAIR_SERVE_REPAIR_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/drift.h"
#include "core/repair_plan.h"
#include "core/repairer.h"
#include "serve/metrics.h"
#include "stats/quantile_sketch.h"

namespace otfair::serve {

/// One row of one client session's archival stream.
///
/// `(session_id, row_index)` is the determinism contract: the service
/// repairs this row with `Rng::ForStream(SessionSeed(session_id),
/// row_index)`, channels in k order — exactly how `OffSampleRepairer::
/// RepairDataset` treats row `row_index` under seed
/// `SessionSeed(session_id)`. A session replaying an archive therefore
/// gets output bit-identical to the offline batch repair of that archive,
/// regardless of submission order, interleaving with other sessions,
/// thread counts, or plan hot-swaps to an identical plan.
struct RowRequest {
  uint64_t session_id = 0;
  uint64_t row_index = 0;
  /// Categorical group labels; validated against the serving plan's
  /// u_levels()/s_levels() per row.
  int u = 0;
  int s = 0;
  /// Full feature row, length dim(), in feature (k) order.
  std::vector<double> features;
};

/// The repaired row, tagged with the request identity. `status` is OK for
/// a repaired row; on a per-row validation failure `repaired` is empty
/// and `status` says why.
struct RowResponse {
  uint64_t session_id = 0;
  uint64_t row_index = 0;
  std::vector<double> repaired;
  common::Status status;
};

/// Drift-based health verdict of the live plan snapshot.
///
/// The overall state is one of three strings (in `state()` / the JSON
/// "state" field): "healthy", "drifted" (the drift thresholds tripped and
/// no redesign has landed yet), or "degraded" (self-heal exhausted its
/// retries — the service keeps serving the last good snapshot, but an
/// operator should intervene). Degraded dominates drifted.
struct ServiceHealth {
  bool drifted = false;
  /// Self-heal gave up (see RepairService::SetDegraded); serving continues
  /// on the old snapshot. Cleared by the next successful plan reload.
  bool degraded = false;
  double worst_w1 = 0.0;
  double worst_out_of_range = 0.0;
  /// Total values streamed into the channel sketches since the current
  /// plan snapshot was installed.
  uint64_t values_observed = 0;
  uint64_t plan_version = 1;
  /// Plan hot-swaps served / rejected over the service lifetime.
  uint64_t reloads_total = 0;
  uint64_t reloads_failed = 0;
  /// True when this process recovered its state from a checkpoint at
  /// startup; `recovered_generation` is the generation it loaded.
  bool recovered = false;
  uint64_t recovered_generation = 0;
  /// Checkpoints written / failed over the service lifetime.
  uint64_t checkpoints_written = 0;
  uint64_t checkpoints_failed = 0;

  const char* state() const {
    return degraded ? "degraded" : (drifted ? "drifted" : "healthy");
  }

  std::string ToJson() const;
};

/// Options fixed at service construction. `seed`, `mode` and `strength`
/// define the repair semantics (the offline-equivalence contract binds
/// them); they survive plan reloads.
struct ServiceOptions {
  uint64_t seed = 0x07fa12u;
  core::TransportMode mode = core::TransportMode::kStochastic;
  double strength = 1.0;
  /// Lanes for one RepairBatch (1: the calling thread, 0: the process
  /// thread pool). Serving front ends take their concurrency from their
  /// own threads, so a batch repairs on the thread that submitted it;
  /// fanning one batch out over the shared pool only queues concurrent
  /// sessions behind each other.
  int threads = 1;
  core::DriftOptions drift;
  /// Fault-injection spec for the self-heal path (see serve::FaultInjector
  /// for the syntax); the redesigner reads it. Empty defers to the
  /// OTFAIR_FAULTS environment variable; production leaves both unset.
  std::string faults;
  /// Version stamped on the construction-time snapshot. Recovery passes
  /// the checkpointed version here so a recovered process serves (and
  /// reports) the same plan version the pre-crash process did — the
  /// bit-identity contract includes the version a session observed.
  uint64_t initial_plan_version = 1;
};

/// A long-lived, thread-safe repair server over a `RepairPlanSet`.
///
/// The plan, its O(1) sampling tables, and the channel sketches live in
/// one immutable-by-readers snapshot held through a mutex-guarded
/// `std::shared_ptr`. The service owns no thread: every call runs on its
/// caller's (sessions, net workers, the checkpoint and self-heal loops).
/// Each serving thread batches its rows through a `Batcher` of its own,
/// so concurrent `RepairBatch` calls number at most the front end's
/// threads.
///
///  - The read path (`RepairRow` / `RepairBatch`) copies the pointer under
///    that mutex, one uncontended lock per batch, then repairs against the
///    snapshot outside it. Any number of threads repair concurrently.
///  - `ReloadPlan` builds a complete replacement snapshot off to the side
///    (plan validation + alias tables) and swaps the pointer under the
///    mutex; the old snapshot is released outside it. In-flight requests
///    finish on the snapshot they acquired; no request is ever dropped or
///    torn by a reload, and none waits on a reload's build.
///
/// Determinism: repair randomness derives only from
/// `(seed, session_id, row_index)` — never from service state, thread
/// schedule, or snapshot identity — so concurrent serving is bit-
/// identical to offline batch repair per session (see RowRequest).
///
/// Drift: every value of every repaired row also feeds the snapshot's
/// per-(u, s, k) `stats::QuantileSketch`, one lock acquisition per batch;
/// `Health()` copies them under that lock and judges the copy against the
/// plan (`core::JudgeDrift`, thresholds from `options.drift`), so operators
/// learn when the serving plan has gone stale (the paper's stationarity
/// assumption, §IV/§VI). The same sketches are the self-heal redesign
/// input and the checkpointed observed state. Reloading a plan restarts
/// them — drift is always judged against the live design.
class RepairService {
 public:
  /// Validates the plans and options and builds the first snapshot.
  static common::Result<std::unique_ptr<RepairService>> Create(
      core::RepairPlanSet plans, const ServiceOptions& options = {});

  ~RepairService();

  RepairService(const RepairService&) = delete;
  RepairService& operator=(const RepairService&) = delete;

  /// The per-session repair seed: session 0 keeps the base seed (a
  /// single-session service is literally the offline batch repairer);
  /// other sessions get decorrelated sub-seeds. Exposed so tests and
  /// clients can construct the equivalent offline repairer.
  uint64_t SessionSeed(uint64_t session_id) const;

  /// Repairs one row: a RepairBatch of one. Thread-safe.
  common::Status RepairRow(const RowRequest& request, RowResponse* response);

  /// Repairs a batch of rows on `options.threads` lanes (the calling
  /// thread by default). Per-row failures land in the matching
  /// response's `status`; the batch itself always completes. `responses`
  /// is resized to match and its element capacity is reused.
  void RepairBatch(const RowRequest* requests, size_t count,
                   std::vector<RowResponse>* responses);

  /// Atomically replaces the serving plan. The new plan must have the
  /// same dimensionality and |U|/|S| level counts (the group-label wire
  /// contract of live sessions must not change under them). Existing
  /// traffic is never blocked or dropped; requests concurrent with the
  /// swap use whichever snapshot they acquired first. The channel sketches
  /// restart against the new plan, and a successful reload clears any
  /// `degraded` verdict.
  ///
  /// Concurrent reloads: calls serialize on an internal mutex (readers
  /// never touch it) and resolve last-writer-wins — each successful call
  /// installs its own plan with a version strictly greater than every
  /// snapshot installed before it, so `plan_version()` is monotone and the
  /// final state is the last caller's plan, never a torn mix. There is no
  /// timeout: a reload blocks only on the preceding reload's snapshot
  /// build (validation + alias tables), which is bounded CPU work, not
  /// I/O. A failed reload (validation error) leaves the serving snapshot
  /// untouched and counts into `reloads_failed`.
  common::Status ReloadPlan(core::RepairPlanSet plans);
  common::Status ReloadPlanFromFile(const std::string& path);

  /// Monotone snapshot version; 1 for the construction-time plan.
  uint64_t plan_version() const;

  size_t dim() const { return dim_; }
  /// Serving group cardinalities, fixed at construction.
  size_t s_levels() const { return s_levels_; }
  size_t u_levels() const { return u_levels_; }
  const ServiceOptions& options() const { return options_; }

  /// Design geometry of the live plan — what an online redesign inherits
  /// so the rebuilt plan set stays drop-in compatible (the level-grid
  /// contract): feature names, the n_Q support resolution, and the
  /// barycentric weights/position.
  struct PlanGeometry {
    std::vector<std::string> feature_names;
    size_t n_q = 0;
    std::vector<double> lambdas;
    double target_t = 0.5;
  };
  PlanGeometry Geometry() const;

  /// Drift report of the live snapshot: its plan judged against its
  /// channel sketches.
  core::DriftReport DriftSnapshot() const;

  /// Copy of the live snapshot's per-channel quantile sketches, indexed
  /// `(u * s_levels + s) * dim + k` (the JudgeDrift order). The sketches
  /// hold integer bucket counts, so they are deterministic for a given set
  /// of observed rows, whatever order the batches landed in. When `drift`
  /// is given it receives the copy's report against the same snapshot's
  /// plan — the verdict and the sketches describe the same rows.
  std::vector<stats::QuantileSketch> SketchSnapshot(core::DriftReport* drift = nullptr) const;

  /// Everything the checkpointer persists, captured from ONE snapshot
  /// acquisition so the plan, its version, and the channel sketches are
  /// mutually coherent even when a reload lands concurrently (the pieces
  /// all describe the same snapshot — a reload concurrent with the capture
  /// is either entirely before or entirely after it).
  struct CheckpointState {
    uint64_t plan_version = 1;
    bool degraded = false;
    core::RepairPlanSet plans;
    std::vector<stats::QuantileSketch> sketches;
  };
  CheckpointState StateForCheckpoint() const;

  /// Folds checkpointed channel sketches into the live snapshot's: one
  /// per channel, merged channel-wise (the exactly-commutative
  /// integer-count merge, so restoring into a fresh service reproduces the
  /// checkpointed sketches bit-identically). Call once, right after
  /// Create, before traffic. A sketch count that does not match the
  /// service's channels is kInvalidArgument and restores nothing.
  common::Status RestoreObservedState(const std::vector<stats::QuantileSketch>& sketches);

  /// Records that this service was started from a recovered checkpoint
  /// (generation > 0); surfaces in Health().
  void MarkRecovered(uint64_t generation) {
    recovered_generation_.store(generation, std::memory_order_relaxed);
  }
  uint64_t recovered_generation() const {
    return recovered_generation_.load(std::memory_order_relaxed);
  }

  /// Health verdict (thresholds from options.drift): the drift report and
  /// the plan version come from one snapshot acquisition.
  ServiceHealth Health() const;

  /// Flags (or clears) the degraded verdict — set by the self-heal loop
  /// after retry exhaustion; cleared automatically by a successful
  /// ReloadPlan. Serving is never interrupted either way.
  void SetDegraded(bool degraded) {
    degraded_.store(degraded, std::memory_order_relaxed);
    metrics_.SetDegraded(degraded);
  }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

 private:
  struct Snapshot;

  RepairService(size_t dim, size_t s_levels, size_t u_levels, const ServiceOptions& options);

  static common::Result<std::shared_ptr<Snapshot>> BuildSnapshot(
      core::RepairPlanSet plans, const ServiceOptions& options, uint64_t version);

  /// Copies `snapshot`'s sketches under its lock; when `drift` is given,
  /// also judges the copy against `snapshot`'s plan (options.drift)
  /// outside the lock, so serving batches wait only for the copy.
  std::vector<stats::QuantileSketch> CopySketches(const Snapshot& snapshot,
                                                  core::DriftReport* drift) const;

  /// Checks feature count and label ranges, stamping the response's
  /// identity and (on failure) its error status.
  bool ValidateRequest(const RowRequest& request, RowResponse* response) const;

  /// The live snapshot, copied under `snapshot_mu_`.
  std::shared_ptr<Snapshot> CurrentSnapshot() const;

  size_t dim_ = 0;
  size_t s_levels_ = 2;
  size_t u_levels_ = 2;
  ServiceOptions options_;
  Metrics metrics_;
  /// Guards only the pointer copy and swap, never a repair or a build.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<Snapshot> snapshot_;
  /// Serializes reloads (readers never touch it).
  std::mutex reload_mu_;
  std::atomic<bool> degraded_{false};
  /// Checkpoint generation this process recovered from (0 = cold start).
  std::atomic<uint64_t> recovered_generation_{0};
  /// Scrape callbacks registered on metrics_.registry() (plan version,
  /// per-channel drift levels, sketch fill counts). Declared last so they
  /// unregister before anything they capture is torn down.
  std::vector<obs::CallbackHandle> metric_callbacks_;
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_REPAIR_SERVICE_H_
