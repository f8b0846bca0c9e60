#include "serve/redesigner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/designer.h"
#include "core/drift.h"
#include "obs/trace.h"

namespace otfair::serve {

using common::Result;
using common::Status;

namespace {

using Clock = std::chrono::steady_clock;

/// `live` minus `stash`, channel by channel: the sketches of what arrived
/// after the stash was taken. kInvalidArgument when the stash is not a
/// prefix of `live`.
Status SubtractStash(std::vector<stats::QuantileSketch>* live,
                     const std::vector<stats::QuantileSketch>& stash) {
  if (live->size() != stash.size())
    return Status::InvalidArgument("stash holds " + std::to_string(stash.size()) +
                                   " sketches, the service " + std::to_string(live->size()));
  for (size_t c = 0; c < stash.size(); ++c) OTFAIR_RETURN_IF_ERROR((*live)[c].Subtract(stash[c]));
  return Status::Ok();
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

bool Redesigner::EpisodeWindow(std::vector<stats::QuantileSketch>* window) const {
  *window = service_->SketchSnapshot();
  return SubtractStash(window, stash_).ok();
}

void Redesigner::CloseEpisode() {
  stash_.clear();
  episode_open_.store(false, std::memory_order_relaxed);
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
    CloseEpisode();
    return;
  }
  // A drift episode opens: stash the sketches, so the redesign input is
  // the traffic that arrives from here on. Sketches accumulated since plan
  // install are dominated by the pre-shift distribution — designing from
  // that mixture would install a plan the ongoing stream immediately
  // drifts against. The sketches themselves keep accumulating, so the
  // drift verdict still sees every row.
  if (!episode_open()) {
    stash_ = service_->SketchSnapshot();
    opened_at_ = Clock::now();
    episode_open_.store(true, std::memory_order_relaxed);
    return;
  }
  // Thin window: drift tripped but not enough values per channel have
  // arrived since the stash. Keep waiting — burning the retry budget here
  // would flag degraded on a stream that merely needs time. If the stream
  // went quiet instead (a finite replay draining after the shift), fall
  // back to the live sketches after `fresh_sketch_wait_ms`: they still
  // contain the drifted suffix, and a mixture-fit plan beats waiting
  // forever on traffic that will never come.
  const std::vector<stats::QuantileSketch>* stash = &stash_;
  std::vector<stats::QuantileSketch> window;
  if (!EpisodeWindow(&window)) {
    // A reload swapped the snapshot since the episode opened; the next
    // poll judges the new plan afresh.
    CloseEpisode();
    return;
  }
  const uint64_t need =
      std::max<uint64_t>(options_.min_channel_count, core::DesignOptions{}.min_group_size);
  if (!std::all_of(window.begin(), window.end(),
                   [&](const stats::QuantileSketch& sketch) { return sketch.count() >= need; })) {
    if (Clock::now() < opened_at_ + std::chrono::milliseconds(options_.fresh_sketch_wait_ms))
      return;
    stash = nullptr;
  }

  // A drift episode: attempt, retry with doubling backoff, and either
  // hot-swap or flag degraded. The serving snapshot is untouched by
  // everything except a successful ReloadPlan.
  OTFAIR_TRACE_SPAN("redesign_episode");
  busy_.store(true, std::memory_order_relaxed);
  service_->metrics().AddRedesignEpisode();
  Status status;
  bool superseded = false;
  int backoff_ms = options_.backoff_initial_ms;
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
    }
    status = AttemptRedesign(stash);
    // A reload that landed since the episode opened ends it: neither an
    // attempt nor a failure.
    if (!status.ok() && stash != nullptr && !EpisodeWindow(&window)) {
      superseded = true;
      break;
    }
    service_->metrics().AddRedesignAttempt();
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
  } else if (!stopped_mid_episode && !superseded) {
    // Exhausted every retry: degrade — but keep serving. A Stop() or a
    // reload mid-episode is not a verdict.
    service_->metrics().AddRedesignGaveUp();
    service_->SetDegraded(true);
  }
  // The episode is over either way; the next one stashes afresh.
  CloseEpisode();
  busy_.store(false, std::memory_order_relaxed);
}

Status Redesigner::AttemptRedesign(const std::vector<stats::QuantileSketch>* stash) {
  OTFAIR_TRACE_SPAN("redesign_attempt");
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.redesign_timeout_ms);
  auto past_deadline = [&] { return Clock::now() > deadline; };

  if (faults_.ShouldInject(Fault::kRedesignThrow))
    return Status::Internal("injected fault: redesign throw");

  // Stage 1: bounded-memory inputs. One copy of the live sketches gives
  // both the drift level the candidate must beat (the live plan judged
  // against the copy) and, minus the stash, the design input.
  std::vector<stats::QuantileSketch> sketches;
  core::DriftReport current;
  {
    OTFAIR_TRACE_SPAN("redesign_snapshot");
    if (faults_.ShouldInject(Fault::kSlowSketchMerge))
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sketches = service_->SketchSnapshot(&current);
    if (stash != nullptr) OTFAIR_RETURN_IF_ERROR(SubtractStash(&sketches, *stash));
  }

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
  // candidate's own drift statistic against the design input must clear
  // the drift threshold AND improve on the current plan's drift level (the
  // E-improvement proxy — both are the normalized W1 the drift verdict
  // alarms on; the integration test closes the loop on the real E-metric).
  if (Status validate_status = [&]() -> Status {
        OTFAIR_TRACE_SPAN("redesign_validate");
        if (faults_.ShouldInject(Fault::kInvalidPlan))
          return Status::FailedPrecondition("injected fault: candidate plan invalid");
        if (Status status = candidate->Validate(1e-5); !status.ok())
          return Status::FailedPrecondition("candidate plan failed validation: " +
                                            status.message());
        auto fit = core::JudgeDrift(*candidate, sketches, service_->options().drift);
        if (!fit.ok()) return fit.status();
        double worst_fit = 0.0;
        for (const core::ChannelDrift& channel : fit->channels)
          worst_fit = std::max(worst_fit, channel.w1_normalized);
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
