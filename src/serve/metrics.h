#ifndef OTFAIR_SERVE_METRICS_H_
#define OTFAIR_SERVE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/registry.h"

namespace otfair::serve {

/// Point-in-time view of a `Metrics` instance. Plain values; safe to copy
/// around, serialize, or diff against an earlier snapshot.
struct MetricsSnapshot {
  /// Rows accepted into the service (single-row and batch members alike).
  uint64_t rows_accepted = 0;
  /// Rows repaired successfully.
  uint64_t rows_repaired = 0;
  /// Rows that failed per-row validation (bad labels, wrong dimension).
  uint64_t rows_invalid = 0;
  /// RepairBatch executions (a single-row repair counts as a batch of 1).
  uint64_t batches = 0;
  /// Plan hot-swaps served so far.
  uint64_t reloads = 0;
  /// Plan reloads rejected (validation failure, unreadable file); the
  /// serving snapshot was left untouched each time.
  uint64_t reloads_failed = 0;
  /// Checkpoints persisted / failed (the serving path is unaffected by a
  /// checkpoint failure — it only loses durability freshness).
  uint64_t checkpoints_written = 0;
  uint64_t checkpoints_failed = 0;
  /// Latency samples recorded (batcher-path requests only). Quantiles are
  /// nearest-rank bucket midpoints clamped to the recorded max.
  uint64_t latency_samples = 0;
  double latency_p50_us = 0.0;
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;
  /// Pending rows in the caller's batcher when the snapshot was taken (a
  /// gauge supplied by the caller — the rows belong to the Batcher).
  uint64_t queue_depth = 0;
  double uptime_seconds = 0.0;
  /// rows_repaired / uptime — the coarse live-throughput gauge.
  double rows_per_second = 0.0;
  /// Serving in degraded mode (redesign gave up; stale plan kept hot).
  bool degraded = false;
  /// Self-heal lifecycle counters, mirrored from the Redesigner.
  uint64_t redesign_episodes = 0;
  uint64_t redesign_attempts = 0;
  uint64_t redesign_failures = 0;
  uint64_t redesign_reloads = 0;
  uint64_t redesign_gave_up = 0;
  /// Latency quantiles over the last closed scrape window (delta between
  /// the two most recent scrapes), as opposed to the lifetime aggregates
  /// above, clamped to the lifetime max. Zero until the first window
  /// closes.
  uint64_t window_latency_samples = 0;
  double window_latency_p50_us = 0.0;
  double window_latency_p90_us = 0.0;
  double window_latency_p99_us = 0.0;

  /// One-line JSON rendering (for the `metrics` protocol verb and the
  /// replay-mode summary). Pre-registry keys render first, byte-identical
  /// to earlier releases; new keys are appended only. `rows_rejected`
  /// stays in its slot and always reads 0: no serving path rejects a row
  /// it has read.
  std::string ToJson() const;
};

/// Serving metrics facade over an `obs::Registry`.
///
/// Every mutation is a relaxed atomic add on a registered instrument — the
/// hot path never takes a lock and never allocates, so metrics stay cheap
/// enough to record per row at millions of rows per second. `Snapshot()`
/// reads the counters without stopping writers; a snapshot taken under
/// live traffic is a consistent-enough view (each counter is individually
/// exact, cross-counter skew is bounded by in-flight requests).
///
/// The registry is the extension point: other serve components
/// (RepairService, Checkpointer, Redesigner) register their own gauges and
/// callback families on `registry()`, and everything — the facade's
/// instruments included — renders through one Prometheus exposition.
///
/// The latency histogram is log-linear (HdrHistogram-style): 8 sub-buckets
/// per power of two of microseconds, <= 12.5% relative quantile error over
/// [1us, ~4000s] in a fixed 328-slot table. Lifetime quantiles come from
/// `Snapshot()`; `ScrapeSnapshot()` additionally closes a scrape window so
/// p50/p99 over just the last interval stay visible after warm-up.
class Metrics {
 public:
  Metrics();

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void AddAccepted(uint64_t rows) { rows_accepted_->Add(rows); }
  void AddRepaired(uint64_t rows) { rows_repaired_->Add(rows); }
  void AddInvalid(uint64_t rows) { rows_invalid_->Add(rows); }
  void AddBatch() { batches_->Add(1); }
  void AddReload() { reloads_->Add(1); }
  void AddReloadFailed() { reloads_failed_->Add(1); }
  void AddCheckpoint() { checkpoints_written_->Add(1); }
  void AddCheckpointFailed() { checkpoints_failed_->Add(1); }

  /// Self-heal lifecycle, mirrored by the Redesigner as episodes run.
  void AddRedesignEpisode() { redesign_episodes_->Add(1); }
  void AddRedesignAttempt() { redesign_attempts_->Add(1); }
  void AddRedesignFailure() { redesign_failures_->Add(1); }
  void AddRedesignReload() { redesign_reloads_->Add(1); }
  void AddRedesignGaveUp() { redesign_gave_up_->Add(1); }
  void SetDegraded(bool degraded) {
    degraded_.store(degraded, std::memory_order_relaxed);
    degraded_gauge_->Set(degraded ? 1.0 : 0.0);
  }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// Records one request latency in microseconds (negative values clamp
  /// to 0).
  void RecordLatencyUs(double us);

  /// Reads everything without side effects; `queue_depth` is passed
  /// through into the snapshot. Window quantiles reflect the last window
  /// closed by `ScrapeSnapshot()` — calling `Snapshot()` (e.g. from the
  /// `health` verb) never consumes the scrape window.
  MetricsSnapshot Snapshot(uint64_t queue_depth = 0) const;

  /// Snapshot() plus: closes the current latency window (quantiles over
  /// samples recorded since the previous scrape) and refreshes the
  /// exposition gauges (queue depth, uptime, window quantiles). Call this
  /// from scrape paths (`metrics` verb, Prometheus dumps), once per
  /// scrape.
  MetricsSnapshot ScrapeSnapshot(uint64_t queue_depth = 0);

  /// Closes the window and renders every registered metric in Prometheus
  /// text exposition format.
  std::string RenderPrometheus(uint64_t queue_depth = 0);

  /// The underlying registry, for other components to register gauges,
  /// histograms, and scrape callbacks on.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

  /// Number of histogram slots (exposed for tests).
  static constexpr size_t kBuckets = obs::Histogram::kBuckets;

 private:
  void FillLegacy(MetricsSnapshot* snap, uint64_t queue_depth) const;

  obs::Registry registry_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> degraded_{false};

  obs::Counter* rows_accepted_;
  obs::Counter* rows_repaired_;
  obs::Counter* rows_invalid_;
  obs::Counter* batches_;
  obs::Counter* reloads_;
  obs::Counter* reloads_failed_;
  obs::Counter* checkpoints_written_;
  obs::Counter* checkpoints_failed_;
  obs::Counter* redesign_episodes_;
  obs::Counter* redesign_attempts_;
  obs::Counter* redesign_failures_;
  obs::Counter* redesign_reloads_;
  obs::Counter* redesign_gave_up_;
  obs::Gauge* degraded_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Gauge* uptime_gauge_;
  obs::Gauge* window_p50_gauge_;
  obs::Gauge* window_p90_gauge_;
  obs::Gauge* window_p99_gauge_;
  obs::Histogram* latency_;

  /// Scrape-window state: the histogram snapshot at the last scrape plus
  /// the quantiles of the last CLOSED window (what Snapshot() reports).
  mutable std::mutex window_mu_;
  obs::Histogram::Snapshot window_base_;
  uint64_t window_samples_ = 0;
  double window_p50_us_ = 0.0;
  double window_p90_us_ = 0.0;
  double window_p99_us_ = 0.0;
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_METRICS_H_
