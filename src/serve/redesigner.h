#ifndef OTFAIR_SERVE_REDESIGNER_H_
#define OTFAIR_SERVE_REDESIGNER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/fault_injector.h"
#include "serve/repair_service.h"
#include "stats/quantile_sketch.h"

namespace otfair::serve {

/// Knobs of the self-heal loop. The defaults favour stability over
/// reaction speed: one poll every 200 ms, three attempts per drift episode
/// with doubling backoff, and a cooldown after every episode so a stream
/// oscillating around the drift threshold cannot flap the plan.
struct RedesignerOptions {
  /// Health-poll cadence of the background thread.
  int poll_interval_ms = 200;
  /// Quiet period after an episode (successful or exhausted) before drift
  /// is judged again.
  int cooldown_ms = 5000;
  /// Redesign attempts per drift episode before declaring `degraded`.
  int max_retries = 3;
  /// Backoff before the 2nd attempt; doubles per retry, capped below.
  int backoff_initial_ms = 250;
  int backoff_max_ms = 5000;
  /// Cooperative wall-clock deadline for one redesign attempt (sketch
  /// snapshot + design + validation). Checked between stages: a late
  /// result is discarded, never installed.
  int redesign_timeout_ms = 30000;
  /// Minimum values per (u, s, k) channel that must arrive after an
  /// episode opens before a redesign is attempted; below it the loop keeps
  /// waiting (drift stays flagged) rather than burning retry budget on
  /// thin data.
  uint64_t min_channel_count = 32;
  /// How long an episode waits for post-drift values to ripen before
  /// falling back to the live sketches. A live stream ripens the episode's
  /// window well inside this and gets a pure post-shift redesign; a stream
  /// that went quiet right after tripping (e.g. a finite replay draining)
  /// falls back to everything observed since plan install — which still
  /// contains the drifted suffix — instead of waiting forever.
  int fresh_sketch_wait_ms = 2000;
};

/// Pseudo-samples per (u, s, k) channel in a redesign. 512 tracks the
/// streamed distribution well past KDE accuracy at the paper's n_Q range.
constexpr size_t kRedesignPseudoSamples = 512;

/// One channel's redesign input: the sketch's quantiles at the midpoints
/// (i + 0.5) / n, n = min(count, kRedesignPseudoSamples), read in one
/// sweep — deterministic, and an n-point equal-mass stand-in for the
/// streamed distribution.
std::vector<double> SketchPseudoSamples(const stats::QuantileSketch& sketch);

/// The self-healing loop: a background thread that watches the service's
/// drift verdict and, when it trips, rebuilds the repair plan from the
/// streaming quantile sketches and hot-swaps it — no raw-row retention, no
/// restart, no dropped requests.
///
/// One drift episode runs: stash the channel sketches (the redesign input
/// is the window `live - stash`, post-drift traffic only, not the stale
/// mixture accumulated since plan install; the sketches themselves keep
/// accumulating, so the drift evidence stays continuous) -> wait until
/// every channel's window ripens past `min_channel_count` -> copy the live
/// sketches and subtract the stash -> SketchPseudoSamples per channel ->
/// DesignFromChannelSamples (inheriting the live plan's geometry) ->
/// validate (structural Validate; the candidate's drift W1 against the
/// window must clear the drift threshold AND improve on the live plan's
/// drift level, judged from the same live copy) -> ReloadPlan. Failures
/// retry with exponential backoff up to `max_retries`; the old snapshot
/// serves untouched throughout, and exhaustion flags the service
/// `degraded` instead of dying. A reload restarts the sketches by
/// construction (they live in the plan snapshot): when another reload
/// lands mid-episode the stash stops being a prefix of the live sketches,
/// and the episode closes without counting an attempt. The episode
/// cooldown guards against flapping. Degraded is sticky until the next
/// successful reload (the loop's own later success, after cooldown, or an
/// operator `reload`).
class Redesigner {
 public:
  /// Validates options, resolves the fault spec and starts the thread.
  /// `service` must outlive the redesigner.
  static common::Result<std::unique_ptr<Redesigner>> Create(
      RepairService* service, const RedesignerOptions& options = {});

  ~Redesigner();

  Redesigner(const Redesigner&) = delete;
  Redesigner& operator=(const Redesigner&) = delete;

  /// Stops and joins the background thread (idempotent).
  void Stop();

  /// True while a drift episode is being worked (redesign or backoff in
  /// progress). Replay drivers drain on this before judging final health.
  bool busy() const { return busy_.load(std::memory_order_relaxed); }

  /// True from the moment a drift episode opens (sketches stashed) until
  /// it closes (reload landed, retries exhausted, or the drift verdict
  /// cleared on its own). The checkpointer records this so a post-crash
  /// operator can see the crash landed mid-episode; recovery restarts the
  /// episode from the restored sketches.
  bool episode_open() const { return episode_open_.load(std::memory_order_relaxed); }

  /// Last attempt failure (Ok if none); for logs and tests.
  common::Status last_error() const;

  /// One synchronous redesign attempt — the unit the background loop
  /// retries. Public for tests and the redesign_to_reload benchmark; the
  /// background loop calls exactly this. The design input is a copy of
  /// the live sketches, minus `stash` when given (the episode's window;
  /// the loop's quiet-stream fallback passes none). A `stash` that is not
  /// a prefix of the live sketches is kInvalidArgument.
  common::Status AttemptRedesign(const std::vector<stats::QuantileSketch>* stash = nullptr);

 private:
  Redesigner(RepairService* service, const RedesignerOptions& options,
             FaultInjector faults);

  void Loop();
  /// One poll: cooldown/degraded/drift checks, then a full episode
  /// (attempts + backoff) if drift tripped and sketches are ready.
  void StepOnce();
  /// Interruptible sleep; returns false if stopped while waiting.
  bool SleepUnlessStopped(int ms);
  /// The live sketches minus the episode's stash into `window`; false when
  /// the stash is no longer a prefix (a reload swapped the snapshot).
  bool EpisodeWindow(std::vector<stats::QuantileSketch>* window) const;
  /// Ends the open episode (loop thread only).
  void CloseEpisode();

  RepairService* service_;
  RedesignerOptions options_;
  FaultInjector faults_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Episode state (loop thread only). See StepOnce: a tripped verdict
  /// first stashes the sketches, then waits for post-drift traffic to
  /// ripen the window past the stash — falling back to the live sketches
  /// after `fresh_sketch_wait_ms` if the stream went quiet.
  std::vector<stats::QuantileSketch> stash_;
  std::chrono::steady_clock::time_point opened_at_;
  common::Status last_error_;
  std::chrono::steady_clock::time_point cooldown_until_;

  std::atomic<bool> busy_{false};
  std::atomic<bool> episode_open_{false};
  /// Backoff currently being served between attempts (0 outside an
  /// episode); feeds the backoff gauge.
  std::atomic<int> current_backoff_ms_{0};
  std::thread thread_;
  /// Episode/backoff gauges on the service registry; declared last so
  /// they unregister first.
  std::vector<obs::CallbackHandle> metric_callbacks_;
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_REDESIGNER_H_
