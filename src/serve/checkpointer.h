#ifndef OTFAIR_SERVE_CHECKPOINTER_H_
#define OTFAIR_SERVE_CHECKPOINTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/repair_plan.h"
#include "serve/redesigner.h"
#include "serve/repair_service.h"
#include "stats/quantile_sketch.h"

namespace otfair::serve {

/// The decoded contents of one checkpoint file: everything a restarted
/// process needs to serve as the pre-crash one did at the checkpoint
/// boundary — the plan (embedded in full, because a self-heal redesign
/// installs plans that exist only in memory), its version, the repair
/// semantics (seed/mode/strength bind the bit-identity contract), the
/// channel sketches (the drift verdict and the redesign input both read
/// them), and the degraded/episode flags.
struct CheckpointData {
  /// Monotone per-directory write counter; also the filename key.
  uint64_t generation = 0;
  uint64_t plan_version = 1;
  bool degraded = false;
  /// The redesigner had a drift episode open when this was written.
  bool episode_open = false;
  /// Repair semantics of the writing service (ServiceOptions).
  uint64_t seed = 0;
  uint32_t mode = 0;
  double strength = 1.0;
  core::RepairPlanSet plans;
  /// One sketch per (u, s, k) channel of `plans`, in JudgeDrift order.
  std::vector<stats::QuantileSketch> sketches;
};

/// Serializes a checkpoint to its on-disk byte form: a fixed header
/// (magic "OTCP", format version, payload size, payload CRC32) followed by
/// the payload. The size field must equal the bytes actually present and
/// the CRC must match, so truncated, oversized, and bit-flipped files are
/// all rejected at the header before any payload field is trusted.
std::string SerializeCheckpoint(const CheckpointData& data);

/// Parses checkpoint bytes, validating the header (magic/version/size/
/// CRC) and then every payload field. `context` labels error messages.
common::Result<CheckpointData> ParseCheckpoint(const char* data, size_t size,
                                               const std::string& context);

common::Result<CheckpointData> LoadCheckpointFile(const std::string& path);

/// The checkpoint file for `generation` inside `dir`.
std::string CheckpointPath(const std::string& dir, uint64_t generation);

/// What recovery found: the decoded newest intact checkpoint, plus the
/// corrupt newer generations it had to skip to get there (for logs).
struct RecoveredCheckpoint {
  CheckpointData data;
  std::string path;
  /// Paths that looked like checkpoints but failed validation, newest
  /// first, each with the rejection reason.
  std::vector<std::string> skipped;
};

/// Scans `dir` for checkpoint files and loads the newest one that
/// validates end to end, falling back generation-by-generation past
/// corrupt or torn files. Returns kNotFound when the directory holds no
/// intact checkpoint at all (including when it is empty or missing) — the
/// caller cold-starts from the plan file; recovery never refuses to serve.
common::Result<RecoveredCheckpoint> RecoverNewestCheckpoint(const std::string& dir);

/// Knobs of the background checkpoint loop.
struct CheckpointerOptions {
  /// Directory the checkpoint files live in (created if missing).
  std::string dir;
  /// Cadence of the background loop.
  int interval_ms = 1000;
  /// Generations retained on disk; older files are pruned after each
  /// successful write. The retained window is what recovery can fall back
  /// through when the newest file is corrupt.
  int keep = 3;
};

/// Periodic, atomic checkpoints of a live RepairService (plus, when given,
/// the redesigner's episode flag).
///
/// Each write captures one coherent service snapshot
/// (RepairService::StateForCheckpoint), serializes it, and lands it with
/// write-temp + fsync + rename — a crash at any instant leaves the
/// directory holding only complete, CRC-valid generations. Failures are
/// counted (metrics `checkpoints_failed`) and retried on the next tick;
/// the serving path never blocks on checkpointing.
class Checkpointer {
 public:
  /// Validates options, creates the directory, and starts the background
  /// thread. `service` must outlive the checkpointer; `redesigner` may be
  /// null. `start_generation` seeds the write counter — recovery passes
  /// the recovered generation so new files sort strictly after every
  /// pre-crash one.
  static common::Result<std::unique_ptr<Checkpointer>> Create(
      RepairService* service, const CheckpointerOptions& options,
      Redesigner* redesigner = nullptr, uint64_t start_generation = 0);

  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// One synchronous checkpoint write (also what the loop calls). Bumps
  /// the generation only when the file landed; prunes generations older
  /// than `keep` afterwards.
  common::Status WriteNow();

  /// Stops and joins the background thread (idempotent). Does not write a
  /// final checkpoint — the drain path calls WriteNow() explicitly so the
  /// final write's outcome is observable.
  void Stop();

  /// Last generation successfully written (the start generation until the
  /// first write lands).
  uint64_t generation() const { return generation_.load(std::memory_order_relaxed); }

  /// Seconds since the last successful write; negative when none landed
  /// yet. Feeds the checkpoint-age gauge.
  double AgeSeconds() const;

  const CheckpointerOptions& options() const { return options_; }

 private:
  Checkpointer(RepairService* service, const CheckpointerOptions& options,
               Redesigner* redesigner, uint64_t start_generation);

  void Loop();

  RepairService* service_;
  CheckpointerOptions options_;
  Redesigner* redesigner_;
  std::atomic<uint64_t> generation_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Monotonic-clock stamp of the last successful write (0 = none yet).
  std::atomic<uint64_t> last_write_ns_{0};
  /// Serializes WriteNow against itself (loop tick vs drain call).
  std::mutex write_mu_;
  std::thread thread_;
  /// Generation/age gauges on the service registry; declared last so they
  /// unregister first.
  std::vector<obs::CallbackHandle> metric_callbacks_;
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_CHECKPOINTER_H_
