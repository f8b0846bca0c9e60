#include "serve/metrics.h"

#include "common/json_writer.h"
#include "obs/prometheus.h"

namespace otfair::serve {

namespace {

obs::Counter* MustCounter(obs::Registry& registry, const char* name, const char* help) {
  return registry.AddCounter(name, help).value();
}

obs::Gauge* MustGauge(obs::Registry& registry, const char* name, const char* help) {
  return registry.AddGauge(name, help).value();
}

}  // namespace

Metrics::Metrics() : start_(std::chrono::steady_clock::now()) {
  rows_accepted_ = MustCounter(registry_, "otfair_serve_rows_accepted_total",
                               "Rows accepted into the service");
  rows_repaired_ = MustCounter(registry_, "otfair_serve_rows_repaired_total",
                               "Rows repaired successfully");
  rows_invalid_ = MustCounter(registry_, "otfair_serve_rows_invalid_total",
                              "Rows that failed per-row validation");
  batches_ = MustCounter(registry_, "otfair_serve_batches_total", "RepairBatch executions");
  reloads_ = MustCounter(registry_, "otfair_serve_reloads_total", "Plan hot-swaps served");
  reloads_failed_ = MustCounter(registry_, "otfair_serve_reloads_failed_total",
                                "Plan reloads rejected before swapping");
  checkpoints_written_ = MustCounter(registry_, "otfair_serve_checkpoints_written_total",
                                     "Checkpoints persisted");
  checkpoints_failed_ = MustCounter(registry_, "otfair_serve_checkpoints_failed_total",
                                    "Checkpoint writes that failed");
  redesign_episodes_ = MustCounter(registry_, "otfair_serve_redesign_episodes_total",
                                   "Drift-triggered redesign episodes opened");
  redesign_attempts_ = MustCounter(registry_, "otfair_serve_redesign_attempts_total",
                                   "Redesign attempts (including retries)");
  redesign_failures_ = MustCounter(registry_, "otfair_serve_redesign_failures_total",
                                   "Redesign attempts that failed");
  redesign_reloads_ = MustCounter(registry_, "otfair_serve_redesign_reloads_total",
                                  "Redesigned plans hot-swapped into serving");
  redesign_gave_up_ = MustCounter(registry_, "otfair_serve_redesign_gave_up_total",
                                  "Redesign episodes abandoned after max attempts");
  degraded_gauge_ = MustGauge(registry_, "otfair_serve_degraded",
                              "1 when serving degraded (redesign gave up), else 0");
  queue_depth_gauge_ = MustGauge(registry_, "otfair_serve_queue_depth",
                                 "Pending rows in the batcher queue at last scrape");
  uptime_gauge_ = MustGauge(registry_, "otfair_serve_uptime_seconds",
                            "Seconds since service metrics were created");
  window_p50_gauge_ = MustGauge(registry_, "otfair_serve_latency_window_p50_us",
                                "p50 request latency over the last scrape window (us)");
  window_p90_gauge_ = MustGauge(registry_, "otfair_serve_latency_window_p90_us",
                                "p90 request latency over the last scrape window (us)");
  window_p99_gauge_ = MustGauge(registry_, "otfair_serve_latency_window_p99_us",
                                "p99 request latency over the last scrape window (us)");
  latency_ = registry_
                 .AddHistogram("otfair_serve_latency_us",
                               "Sampled request latency through the batcher path (us)")
                 .value();
}

void Metrics::RecordLatencyUs(double us) {
  if (!(us > 0.0)) us = 0.0;
  latency_->Record(static_cast<uint64_t>(us));
}

void Metrics::FillLegacy(MetricsSnapshot* snap, uint64_t queue_depth) const {
  snap->rows_accepted = rows_accepted_->Value();
  snap->rows_repaired = rows_repaired_->Value();
  snap->rows_invalid = rows_invalid_->Value();
  snap->batches = batches_->Value();
  snap->reloads = reloads_->Value();
  snap->reloads_failed = reloads_failed_->Value();
  snap->checkpoints_written = checkpoints_written_->Value();
  snap->checkpoints_failed = checkpoints_failed_->Value();
  snap->queue_depth = queue_depth;
  snap->uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  snap->rows_per_second = snap->uptime_seconds > 0.0
                              ? static_cast<double>(snap->rows_repaired) / snap->uptime_seconds
                              : 0.0;

  const obs::Histogram::Snapshot hist = latency_->Read();
  // The sample total is derived from the bucket reads themselves, so the
  // quantile rank can never exceed the summed counts even when writers
  // land between loads.
  uint64_t samples = 0;
  for (uint64_t c : hist.counts) samples += c;
  obs::Histogram::Snapshot consistent = hist;
  consistent.count = samples;
  snap->latency_samples = samples;
  snap->latency_p50_us = static_cast<double>(consistent.QuantileUs(0.50));
  snap->latency_p90_us = static_cast<double>(consistent.QuantileUs(0.90));
  snap->latency_p99_us = static_cast<double>(consistent.QuantileUs(0.99));
  snap->latency_max_us = static_cast<double>(hist.max);

  snap->degraded = degraded();
  snap->redesign_episodes = redesign_episodes_->Value();
  snap->redesign_attempts = redesign_attempts_->Value();
  snap->redesign_failures = redesign_failures_->Value();
  snap->redesign_reloads = redesign_reloads_->Value();
  snap->redesign_gave_up = redesign_gave_up_->Value();
}

MetricsSnapshot Metrics::Snapshot(uint64_t queue_depth) const {
  MetricsSnapshot snap;
  FillLegacy(&snap, queue_depth);
  std::lock_guard<std::mutex> lock(window_mu_);
  snap.window_latency_samples = window_samples_;
  snap.window_latency_p50_us = window_p50_us_;
  snap.window_latency_p90_us = window_p90_us_;
  snap.window_latency_p99_us = window_p99_us_;
  return snap;
}

MetricsSnapshot Metrics::ScrapeSnapshot(uint64_t queue_depth) {
  MetricsSnapshot snap;
  FillLegacy(&snap, queue_depth);

  std::lock_guard<std::mutex> lock(window_mu_);
  obs::Histogram::Snapshot cur = latency_->Read();
  // Re-derive the count from the buckets for the same writer-race
  // robustness as the lifetime path.
  uint64_t samples = 0;
  for (uint64_t c : cur.counts) samples += c;
  cur.count = samples;
  obs::Histogram::Snapshot window =
      window_base_.counts.empty() ? cur : obs::Histogram::Delta(cur, window_base_);
  window_samples_ = window.count;
  window_p50_us_ = static_cast<double>(window.QuantileUs(0.50));
  window_p90_us_ = static_cast<double>(window.QuantileUs(0.90));
  window_p99_us_ = static_cast<double>(window.QuantileUs(0.99));
  window_base_ = std::move(cur);

  snap.window_latency_samples = window_samples_;
  snap.window_latency_p50_us = window_p50_us_;
  snap.window_latency_p90_us = window_p90_us_;
  snap.window_latency_p99_us = window_p99_us_;

  queue_depth_gauge_->Set(static_cast<double>(queue_depth));
  uptime_gauge_->Set(snap.uptime_seconds);
  window_p50_gauge_->Set(window_p50_us_);
  window_p90_gauge_->Set(window_p90_us_);
  window_p99_gauge_->Set(window_p99_us_);
  return snap;
}

std::string Metrics::RenderPrometheus(uint64_t queue_depth) {
  (void)ScrapeSnapshot(queue_depth);
  return obs::RenderPrometheusText(registry_);
}

std::string MetricsSnapshot::ToJson() const {
  common::JsonWriter w;
  w.BeginObject()
      .Key("rows_accepted").Uint(rows_accepted)
      .Key("rows_repaired").Uint(rows_repaired)
      .Key("rows_invalid").Uint(rows_invalid)
      .Key("rows_rejected").Uint(0)
      .Key("batches").Uint(batches)
      .Key("reloads").Uint(reloads)
      .Key("reloads_failed").Uint(reloads_failed)
      .Key("checkpoints_written").Uint(checkpoints_written)
      .Key("checkpoints_failed").Uint(checkpoints_failed)
      .Key("queue_depth").Uint(queue_depth)
      .Key("uptime_seconds").Double(uptime_seconds)
      .Key("rows_per_second").Double(rows_per_second)
      .Key("latency_samples").Uint(latency_samples)
      .Key("latency_p50_us").Double(latency_p50_us)
      .Key("latency_p90_us").Double(latency_p90_us)
      .Key("latency_p99_us").Double(latency_p99_us)
      .Key("latency_max_us").Double(latency_max_us)
      .Key("degraded").Bool(degraded)
      .Key("redesign_episodes").Uint(redesign_episodes)
      .Key("redesign_attempts").Uint(redesign_attempts)
      .Key("redesign_failures").Uint(redesign_failures)
      .Key("redesign_reloads").Uint(redesign_reloads)
      .Key("redesign_gave_up").Uint(redesign_gave_up)
      .Key("window_latency_samples").Uint(window_latency_samples)
      .Key("window_latency_p50_us").Double(window_latency_p50_us)
      .Key("window_latency_p90_us").Double(window_latency_p90_us)
      .Key("window_latency_p99_us").Double(window_latency_p99_us)
      .EndObject();
  return w.str();
}

}  // namespace otfair::serve
