#include "serve/redesigner.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/designer.h"
#include "core/drift_monitor.h"
#include "obs/trace.h"
#include "ot/measure.h"

namespace otfair::serve {

using common::Result;
using common::Status;

namespace {

using Clock = std::chrono::steady_clock;

/// Normalized W1 between the sketch's streamed distribution and a design
/// marginal, both expressed on the marginal's grid — the same statistic
/// (and normalization) DriftMonitor judges the live plan by, so the
/// candidate's fit is directly comparable to the drift level that
/// triggered the redesign.
double SketchFitW1(const stats::QuantileSketch& sketch, const core::SupportGrid& grid,
                   const ot::DiscreteMeasure& marginal) {
  const std::vector<double>& points = grid.points();
  const size_t n = points.size();
  if (n < 2 || sketch.count() == 0) return 0.0;
  // CDF at the midpoint between states i and i+1: every streamed value
  // below it bins to state <= i (nearest-state binning, as the drift
  // histogram does). Out-of-range mass clamps into the end states.
  std::vector<double> midpoints(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) midpoints[i] = 0.5 * (points[i] + points[i + 1]);
  const std::vector<double> cum_stream = sketch.Cdfs(midpoints);
  double gap_sum = 0.0;
  double cum_design = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    cum_design += marginal.weight_at(i);
    gap_sum += std::fabs(cum_stream[i] - cum_design);
  }
  const double span = grid.hi() - grid.lo();
  return span > 0.0 ? grid.step() * gap_sum / span : 0.0;
}

}  // namespace

std::vector<double> SketchPseudoSamples(const stats::QuantileSketch& sketch) {
  const size_t n =
      static_cast<size_t>(std::min<uint64_t>(sketch.count(), kRedesignPseudoSamples));
  std::vector<double> ps(n);
  for (size_t i = 0; i < n; ++i)
    ps[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  return sketch.Quantiles(ps);
}

Redesigner::Redesigner(RepairService* service, const RedesignerOptions& options,
                       FaultInjector faults)
    : service_(service), options_(options), faults_(std::move(faults)) {
  cooldown_until_ = Clock::now();
}

Result<std::unique_ptr<Redesigner>> Redesigner::Create(RepairService* service,
                                                       const RedesignerOptions& options) {
  if (service == nullptr) return Status::InvalidArgument("service must not be null");
  if (options.poll_interval_ms <= 0)
    return Status::InvalidArgument("poll_interval_ms must be >= 1");
  if (options.max_retries < 1) return Status::InvalidArgument("max_retries must be >= 1");
  if (options.backoff_initial_ms < 0 || options.backoff_max_ms < options.backoff_initial_ms)
    return Status::InvalidArgument("backoff must satisfy 0 <= initial <= max");
  if (options.redesign_timeout_ms <= 0)
    return Status::InvalidArgument("redesign_timeout_ms must be >= 1");
  if (options.cooldown_ms < 0) return Status::InvalidArgument("cooldown_ms must be >= 0");
  if (options.fresh_sketch_wait_ms < 0)
    return Status::InvalidArgument("fresh_sketch_wait_ms must be >= 0");
  if (service->options().sketch_sample_every == 0)
    return Status::FailedPrecondition(
        "service has sketch_sample_every = 0: no streaming sketches to redesign from");
  // Fault spec precedence: service options, then the OTFAIR_FAULTS
  // environment.
  Result<FaultInjector> faults = !service->options().faults.empty()
                                     ? FaultInjector::Parse(service->options().faults)
                                     : FaultInjector::FromEnv();
  if (!faults.ok()) return faults.status();
  std::unique_ptr<Redesigner> redesigner(
      new Redesigner(service, options, std::move(*faults)));
  // Best-effort gauges (a second redesigner on the same service keeps
  // running; only the first one's gauges register).
  Redesigner* raw = redesigner.get();
  obs::Registry& registry = service->metrics().registry();
  auto episode_cb = registry.AddCallback(
      "otfair_serve_redesign_episode_open", "1 while a drift episode is open, else 0",
      obs::MetricKind::kGauge, [raw] {
        return std::vector<obs::MetricSample>{{"", raw->episode_open() ? 1.0 : 0.0}};
      });
  if (episode_cb.ok()) redesigner->metric_callbacks_.push_back(std::move(*episode_cb));
  auto busy_cb = registry.AddCallback(
      "otfair_serve_redesign_busy", "1 while a redesign attempt or backoff runs, else 0",
      obs::MetricKind::kGauge, [raw] {
        return std::vector<obs::MetricSample>{{"", raw->busy() ? 1.0 : 0.0}};
      });
  if (busy_cb.ok()) redesigner->metric_callbacks_.push_back(std::move(*busy_cb));
  auto backoff_cb = registry.AddCallback(
      "otfair_serve_redesign_backoff_ms",
      "Backoff being served between redesign attempts (0 outside an episode)",
      obs::MetricKind::kGauge, [raw] {
        return std::vector<obs::MetricSample>{
            {"", static_cast<double>(raw->current_backoff_ms_.load(std::memory_order_relaxed))}};
      });
  if (backoff_cb.ok()) redesigner->metric_callbacks_.push_back(std::move(*backoff_cb));
  redesigner->thread_ = std::thread([r = redesigner.get()] { r->Loop(); });
  return redesigner;
}

Redesigner::~Redesigner() { Stop(); }

void Redesigner::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Status Redesigner::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

bool Redesigner::SleepUnlessStopped(int ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(ms), [&] { return stop_; });
  return !stop_;
}

void Redesigner::Loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_interval_ms),
                   [&] { return stop_; });
      if (stop_) return;
    }
    StepOnce();
  }
}

void Redesigner::StepOnce() {
  if (Clock::now() < [&] {
        std::lock_guard<std::mutex> lock(mu_);
        return cooldown_until_;
      }())
    return;
  // Degraded is sticky: the loop stands down until a successful reload
  // (operator `reload`, or this loop's own later success is impossible —
  // it gave up) clears the flag on the service.
  if (service_->degraded()) return;
  if (!service_->Health().drifted) {
    fresh_sketches_ = false;
    episode_open_.store(false, std::memory_order_relaxed);
    return;
  }
  // A drift episode opens: stash the accumulated sketches and restart
  // them, so the redesign input reflects post-drift traffic only.
  // Sketches accumulated since plan install are dominated by the
  // pre-shift distribution — designing from that mixture would install a
  // plan the ongoing stream immediately drifts against.
  if (!fresh_sketches_) {
    stashed_sketches_ = service_->SketchSnapshot();
    service_->ResetSketches();
    fresh_since_ = Clock::now();
    fresh_sketches_ = true;
    episode_open_.store(true, std::memory_order_relaxed);
    return;
  }
  // Thin sketches: drift tripped but the restarted sketches haven't seen
  // enough sampled rows per channel yet. Keep waiting — burning the retry
  // budget here would flag degraded on a stream that merely needs time.
  // If the stream went quiet instead (a finite replay draining after the
  // shift), fall back to the pre-trip stash after `fresh_sketch_wait_ms`:
  // it still contains the drifted suffix, and a mixture-fit plan beats
  // waiting forever on traffic that will never come.
  const std::vector<stats::QuantileSketch>* sketches_override = nullptr;
  {
    const std::vector<stats::QuantileSketch> sketches = service_->SketchSnapshot();
    const uint64_t need =
        std::max<uint64_t>(options_.min_channel_count, core::DesignOptions{}.min_group_size);
    bool ripe = true;
    for (const stats::QuantileSketch& sketch : sketches)
      if (sketch.count() < need) {
        ripe = false;
        break;
      }
    if (!ripe) {
      if (Clock::now() <
          fresh_since_ + std::chrono::milliseconds(options_.fresh_sketch_wait_ms))
        return;
      sketches_override = &stashed_sketches_;
    }
  }

  // A drift episode: attempt, retry with doubling backoff, and either
  // hot-swap or flag degraded. The serving snapshot is untouched by
  // everything except a successful ReloadPlan.
  OTFAIR_TRACE_SPAN("redesign_episode");
  busy_.store(true, std::memory_order_relaxed);
  service_->metrics().AddRedesignEpisode();
  Status status;
  int backoff_ms = options_.backoff_initial_ms;
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
    }
    service_->metrics().AddRedesignAttempt();
    status = AttemptRedesign(sketches_override);
    if (status.ok()) break;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_error_ = status;
    }
    service_->metrics().AddRedesignFailure();
    if (attempt + 1 < options_.max_retries) {
      current_backoff_ms_.store(backoff_ms, std::memory_order_relaxed);
      const bool keep_going = SleepUnlessStopped(backoff_ms);
      current_backoff_ms_.store(0, std::memory_order_relaxed);
      if (!keep_going) break;
    }
    backoff_ms = std::min(backoff_ms > 0 ? backoff_ms * 2 : 1, options_.backoff_max_ms);
  }
  bool stopped_mid_episode = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_mid_episode = stop_;
    cooldown_until_ = Clock::now() + std::chrono::milliseconds(options_.cooldown_ms);
  }
  if (status.ok()) {
    service_->metrics().AddRedesignReload();
  } else if (!stopped_mid_episode) {
    service_->metrics().AddRedesignGaveUp();
  }
  // Exhausted every retry: degrade — but keep serving. A Stop() mid-episode
  // is not a verdict.
  if (!status.ok() && !stopped_mid_episode) service_->SetDegraded(true);
  // The episode is over either way; the next one starts from fresh
  // sketches again (a successful reload already reset them structurally).
  fresh_sketches_ = false;
  stashed_sketches_.clear();
  episode_open_.store(false, std::memory_order_relaxed);
  busy_.store(false, std::memory_order_relaxed);
}

Status Redesigner::AttemptRedesign(
    const std::vector<stats::QuantileSketch>* sketches_override) {
  OTFAIR_TRACE_SPAN("redesign_attempt");
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.redesign_timeout_ms);
  auto past_deadline = [&] { return Clock::now() > deadline; };

  if (faults_.ShouldInject(Fault::kRedesignThrow))
    return Status::Internal("injected fault: redesign throw");
  if (faults_.ShouldInject(Fault::kSlowSketchMerge))
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Stage 1: bounded-memory inputs. The sketch snapshot and the drift
  // level the candidate must beat are taken back to back, so both describe
  // the same serving snapshot (a concurrent reload would reset both).
  const std::vector<stats::QuantileSketch> sketches =
      sketches_override != nullptr ? *sketches_override : service_->SketchSnapshot();
  if (sketches.empty())
    return Status::FailedPrecondition("sketches disabled; cannot redesign from stream");
  const core::DriftReport current = service_->DriftSnapshot();

  if (faults_.ShouldInject(Fault::kRedesignTimeout))
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.redesign_timeout_ms + 20));
  if (past_deadline())
    return Status::Unavailable("redesign exceeded " +
                               std::to_string(options_.redesign_timeout_ms) +
                               " ms deadline after sketch snapshot; result discarded");

  // Stage 2: rebuild through the designer, inheriting the live plan's
  // geometry so the replacement is drop-in compatible.
  const RepairService::PlanGeometry geometry = service_->Geometry();
  core::DesignOptions design;
  design.n_q = geometry.n_q;
  design.lambdas = geometry.lambdas;
  design.target_t = geometry.target_t;

  const size_t dim = service_->dim();
  const size_t s_levels = service_->s_levels();
  auto candidate = [&] {
    OTFAIR_TRACE_SPAN("redesign_design");
    std::vector<std::vector<double>> channels;
    channels.reserve(sketches.size());
    for (const stats::QuantileSketch& sketch : sketches)
      channels.push_back(SketchPseudoSamples(sketch));
    return core::DesignFromChannelSamples(dim, geometry.feature_names, s_levels,
                                          service_->u_levels(), channels, design);
  }();
  if (!candidate.ok()) return candidate.status();
  if (past_deadline())
    return Status::Unavailable("redesign exceeded " +
                               std::to_string(options_.redesign_timeout_ms) +
                               " ms deadline after design; result discarded");

  // Stage 3: validation. Structural invariants, then the fit gate: the
  // candidate's own drift statistic against the streamed distribution must
  // clear the drift threshold AND improve on the current plan's drift
  // level (the E-improvement proxy — both are the normalized W1 the
  // monitor alarms on; the integration test closes the loop on the real
  // E-metric).
  if (Status validate_status = [&]() -> Status {
        OTFAIR_TRACE_SPAN("redesign_validate");
        if (faults_.ShouldInject(Fault::kInvalidPlan))
          return Status::FailedPrecondition("injected fault: candidate plan invalid");
        if (Status status = candidate->Validate(1e-5); !status.ok())
          return Status::FailedPrecondition("candidate plan failed validation: " +
                                            status.message());
        double worst_fit = 0.0;
        const size_t u_levels = service_->u_levels();
        for (size_t u = 0; u < u_levels; ++u) {
          for (size_t k = 0; k < dim; ++k) {
            const core::ChannelPlan& channel = candidate->At(static_cast<int>(u), k);
            for (size_t s = 0; s < s_levels; ++s) {
              const double fit = SketchFitW1(sketches[(u * s_levels + s) * dim + k],
                                             channel.grid, channel.marginal[s]);
              worst_fit = std::max(worst_fit, fit);
            }
          }
        }
        const double threshold = service_->options().drift.w1_threshold;
        if (worst_fit > threshold)
          return Status::FailedPrecondition(
              "candidate plan still drifted against the stream (worst W1 " +
              std::to_string(worst_fit) + " > threshold " + std::to_string(threshold) + ")");
        if (current.drifted && worst_fit >= current.worst_w1)
          return Status::FailedPrecondition(
              "candidate plan does not improve on the live plan (worst W1 " +
              std::to_string(worst_fit) + " vs current " +
              std::to_string(current.worst_w1) + ")");
        return Status::Ok();
      }();
      !validate_status.ok())
    return validate_status;
  if (past_deadline())
    return Status::Unavailable("redesign exceeded " +
                               std::to_string(options_.redesign_timeout_ms) +
                               " ms deadline after validation; result discarded");

  // Stage 4: the hot swap (also clears any degraded verdict).
  return service_->ReloadPlan(std::move(*candidate));
}

}  // namespace otfair::serve
