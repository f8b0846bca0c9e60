// Crash/recovery chaos, in process: a serving process "dies" by dropping
// its service object with no drain — exactly what kill -9 leaves behind —
// and a new one recovers from the checkpoint directory. The contracts
// under test:
//
//  - the recovered process serves the same plan version bit-identically
//    (same repaired bytes for the same (session, row) requests);
//  - observed state (the channel sketches) resumes at the last checkpoint
//    — traffic after the final checkpoint is lost, and nothing else;
//  - recovery falls back past a corrupt newest generation, and cold-starts
//    when nothing is intact — it never refuses to serve;
//  - a crash mid-self-heal-episode recovers and the redesigner converges
//    on the restored sketches.
//
// The true kill -9 variant (separate processes, SIGKILL mid-replay) runs
// in tools/chaos_replay.sh / CI; these tests keep the same state machine
// deterministic and sanitizer-friendly.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/file_util.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/designer.h"
#include "data/dataset.h"
#include "serve/checkpointer.h"
#include "serve/redesigner.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"

namespace otfair {
namespace {

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  // Wipe leftovers from a previous run so every test starts empty.
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (const struct dirent* entry = ::readdir(handle)) {
      const std::string file = entry->d_name;
      if (file != "." && file != "..") ::unlink((dir + "/" + file).c_str());
    }
    ::closedir(handle);
  }
  return dir;
}

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
  core::RepairPlanSet plans;
};

Fixture MakeFixture(uint64_t seed, size_t archive_rows = 2000) {
  Fixture fx;
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(600, sim::GaussianSimConfig::PaperDefault(), rng);
  auto archive = sim::SimulateGaussianMixture(
      archive_rows, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok() && archive.ok());
  fx.research = std::move(*research);
  fx.archive = std::move(*archive);
  auto plans = core::DesignDistributionalRepair(fx.research, {});
  EXPECT_TRUE(plans.ok());
  fx.plans = std::move(*plans);
  return fx;
}

/// Streams rows [begin, end) as `session`, asserting zero drops; returns
/// the repaired features.
common::Matrix StreamRows(serve::RepairService* service, const data::Dataset& archive,
                          size_t begin, size_t end, uint64_t session = 0) {
  std::vector<serve::RowRequest> requests;
  requests.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    serve::RowRequest request;
    request.session_id = session;
    request.row_index = i;
    request.u = archive.u(i);
    request.s = archive.s(i);
    request.features = archive.Row(i);
    requests.push_back(std::move(request));
  }
  std::vector<serve::RowResponse> responses;
  service->RepairBatch(requests.data(), requests.size(), &responses);
  common::Matrix repaired(end - begin, archive.dim());
  EXPECT_EQ(responses.size(), end - begin);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].status.ok()) << "row " << begin + i;
    for (size_t k = 0; k < archive.dim(); ++k) repaired(i, k) = responses[i].repaired[k];
  }
  return repaired;
}

/// Recovers a service from `dir` the way `otfair serve --recover` does:
/// the checkpoint's repair semantics and plan version override the base
/// options, observed state folds in, and the recovered generation is
/// surfaced through `out_generation`.
std::unique_ptr<serve::RepairService> Recover(const std::string& dir,
                                              serve::ServiceOptions base,
                                              uint64_t* out_generation = nullptr) {
  auto recovered = serve::RecoverNewestCheckpoint(dir);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) return nullptr;
  serve::CheckpointData& data = recovered->data;
  base.seed = data.seed;
  base.mode = static_cast<core::TransportMode>(data.mode);
  base.strength = data.strength;
  base.initial_plan_version = data.plan_version;
  auto service = serve::RepairService::Create(std::move(data.plans), base);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return nullptr;
  EXPECT_TRUE((*service)->RestoreObservedState(data.sketches).ok());
  (*service)->SetDegraded(data.degraded);
  (*service)->MarkRecovered(data.generation);
  if (out_generation != nullptr) *out_generation = data.generation;
  return std::move(*service);
}

uint64_t TotalSketchCount(const std::vector<stats::QuantileSketch>& sketches) {
  uint64_t total = 0;
  for (const auto& sketch : sketches) total += sketch.count();
  return total;
}

TEST(ChaosTest, CrashAfterCheckpointRecoversBitIdenticalServing) {
  Fixture fx = MakeFixture(1);
  const std::string dir = TempDirFor("chaos_bit_identical");
  serve::ServiceOptions options;
  options.seed = 4242;

  common::Matrix pre_crash(0, 0);
  uint64_t checkpoint_sketch_rows = 0;
  core::DriftReport checkpoint_drift;
  {
    auto service = serve::RepairService::Create(fx.plans, options);
    ASSERT_TRUE(service.ok());
    auto checkpointer = serve::Checkpointer::Create(
        service->get(), {dir, /*interval_ms=*/60000, /*keep=*/3});
    ASSERT_TRUE(checkpointer.ok());

    // Serve 1200 rows, checkpoint, serve 300 more (these are the rows a
    // real crash loses), record what a fresh session's repairs look like.
    StreamRows(service->get(), fx.archive, 0, 1200, /*session=*/0);
    ASSERT_TRUE((*checkpointer)->WriteNow().ok());
    checkpoint_sketch_rows = TotalSketchCount((*service)->SketchSnapshot());
    checkpoint_drift = (*service)->DriftSnapshot();
    StreamRows(service->get(), fx.archive, 1200, 1500, /*session=*/0);
    pre_crash = StreamRows(service->get(), fx.archive, 0, 400, /*session=*/9);
    // Crash: scope exit destroys the service with no drain and no final
    // checkpoint. (Checkpointer stops first, as its dtor would.)
  }

  uint64_t generation = 0;
  auto recovered = Recover(dir, serve::ServiceOptions{}, &generation);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(generation, 1u);

  // Same plan version, surfaced as recovered in health.
  const auto health = recovered->Health();
  EXPECT_EQ(health.plan_version, 1u);
  EXPECT_TRUE(health.recovered);
  EXPECT_EQ(health.recovered_generation, 1u);

  // Bit-identity: session 9's repairs come out byte-for-byte the same as
  // the pre-crash process produced them.
  const common::Matrix post = StreamRows(recovered.get(), fx.archive, 0, 400, 9);
  for (size_t i = 0; i < 400; ++i)
    for (size_t k = 0; k < fx.archive.dim(); ++k)
      ASSERT_EQ(post(i, k), pre_crash(i, k)) << "row " << i << " k " << k;

  // Observed state resumed at the checkpoint boundary: the session-9
  // probe rows above observed into the recovered sketches, so
  // subtract them; what remains is exactly the checkpointed state — the
  // 300 post-checkpoint rows (and only those) were lost.
  const uint64_t probe_sketch_rows = 400 * fx.archive.dim();
  EXPECT_EQ(TotalSketchCount(recovered->SketchSnapshot()) - probe_sketch_rows,
            checkpoint_sketch_rows);
  const auto drift = recovered->DriftSnapshot();
  uint64_t checkpoint_values = 0;
  uint64_t recovered_values = 0;
  for (const auto& channel : checkpoint_drift.channels) checkpoint_values += channel.count;
  for (const auto& channel : drift.channels) recovered_values += channel.count;
  EXPECT_EQ(recovered_values, checkpoint_values + 400 * fx.archive.dim());
}

TEST(ChaosTest, RecoveryFallsBackPastTornNewestGeneration) {
  Fixture fx = MakeFixture(2);
  const std::string dir = TempDirFor("chaos_torn_newest");
  {
    auto service = serve::RepairService::Create(fx.plans, {});
    ASSERT_TRUE(service.ok());
    auto checkpointer =
        serve::Checkpointer::Create(service->get(), {dir, 60000, /*keep=*/3});
    ASSERT_TRUE(checkpointer.ok());
    StreamRows(service->get(), fx.archive, 0, 500);
    ASSERT_TRUE((*checkpointer)->WriteNow().ok());
    StreamRows(service->get(), fx.archive, 500, 1000);
    ASSERT_TRUE((*checkpointer)->WriteNow().ok());
  }
  // Tear generation 2 the way a crash mid-write would if the write were
  // not atomic (recovery must not trust the newest filename).
  const std::string newest = serve::CheckpointPath(dir, 2);
  auto bytes = common::ReadFileToString(newest);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(common::AtomicWriteFile(newest, bytes->substr(0, bytes->size() / 3)).ok());

  uint64_t generation = 0;
  auto recovered = Recover(dir, serve::ServiceOptions{}, &generation);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(generation, 1u);
  // And the recovered service still serves.
  StreamRows(recovered.get(), fx.archive, 0, 100);
}

TEST(ChaosTest, AllCorruptFallsBackToColdStart) {
  Fixture fx = MakeFixture(3);
  const std::string dir = TempDirFor("chaos_all_corrupt");
  ASSERT_TRUE(common::AtomicWriteFile(serve::CheckpointPath(dir, 1), "junk").ok());
  ASSERT_TRUE(
      common::AtomicWriteFile(serve::CheckpointPath(dir, 2), std::string(64, '\0')).ok());
  auto recovered = serve::RecoverNewestCheckpoint(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), common::StatusCode::kNotFound);
  // The cold-start path the CLI takes on kNotFound: plans from the plan
  // file, fresh state — serving is never refused.
  auto service = serve::RepairService::Create(fx.plans, {});
  ASSERT_TRUE(service.ok());
  StreamRows(service->get(), fx.archive, 0, 100);
  EXPECT_FALSE((*service)->Health().recovered);
}

TEST(ChaosTest, CheckpointDuringReloadRecoversAWholeVersion) {
  // Checkpoints race a stream of reloads; whatever generation lands last
  // must recover to a service whose plan and version are one coherent
  // pair (the version is the one the embedded plan was serving under).
  Fixture fx = MakeFixture(4);
  const std::string dir = TempDirFor("chaos_reload_race");
  uint64_t final_version = 0;
  {
    auto service = serve::RepairService::Create(fx.plans, {});
    ASSERT_TRUE(service.ok());
    auto checkpointer =
        serve::Checkpointer::Create(service->get(), {dir, 60000, /*keep=*/100});
    ASSERT_TRUE(checkpointer.ok());
    std::thread reloader([&] {
      for (int i = 0; i < 15; ++i) ASSERT_TRUE((*service)->ReloadPlan(fx.plans).ok());
    });
    for (int i = 0; i < 15; ++i) ASSERT_TRUE((*checkpointer)->WriteNow().ok());
    reloader.join();
    ASSERT_TRUE((*checkpointer)->WriteNow().ok());  // capture the final state
    final_version = (*service)->plan_version();
  }
  uint64_t generation = 0;
  auto recovered = Recover(dir, serve::ServiceOptions{}, &generation);
  ASSERT_NE(recovered, nullptr);
  // The final checkpoint ran after the last reload, so recovery serves
  // the last-writer version.
  EXPECT_EQ(recovered->plan_version(), final_version);
  StreamRows(recovered.get(), fx.archive, 0, 100);
}

TEST(ChaosTest, SelfHealConvergesAfterCrashMidEpisode) {
  // Drift trips, the redesigner opens an episode, and the process dies
  // before the redesign lands. The recovered process restores the tripped
  // sketches, its own redesigner re-opens the episode, ripens its window
  // on continuing post-shift traffic, and lands the redesign — ending
  // healthy with a bumped plan version.
  common::Rng rng(5);
  const auto config = sim::GaussianSimConfig::PaperDefault();
  auto research = sim::SimulateGaussianMixture(600, config, rng);
  auto archive = sim::SimulateGaussianMixture(6000, config, rng);
  ASSERT_TRUE(research.ok() && archive.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  ASSERT_TRUE(plans.ok());
  // The shifted stream (the same +2 sigma covariate shift the self-heal
  // acceptance test uses).
  common::Matrix shifted_features(archive->size(), archive->dim());
  for (size_t i = 0; i < archive->size(); ++i)
    for (size_t k = 0; k < archive->dim(); ++k)
      shifted_features(i, k) = archive->feature(i, k) + 2.0;
  auto shifted_result = data::Dataset::Create(std::move(shifted_features),
                                              archive->s_labels(), archive->u_labels(),
                                              archive->feature_names());
  ASSERT_TRUE(shifted_result.ok());
  const data::Dataset shifted = std::move(*shifted_result);

  const std::string dir = TempDirFor("chaos_mid_episode");
  serve::ServiceOptions options;

  serve::RedesignerOptions heal;
  heal.poll_interval_ms = 5;
  heal.backoff_initial_ms = 1;
  heal.cooldown_ms = 1;
  heal.min_channel_count = 64;
  // Long fresh-sketch wait: after the episode opens (sketches stashed),
  // the redesign blocks on post-drift values. Phase 1 sends no more
  // traffic, so the episode deterministically stays open across the
  // checkpoint and the crash; phase 2's traffic ripens it.
  heal.fresh_sketch_wait_ms = 60000;

  {
    auto service = serve::RepairService::Create(*plans, options);
    ASSERT_TRUE(service.ok());
    auto redesigner = serve::Redesigner::Create(service->get(), heal);
    ASSERT_TRUE(redesigner.ok());
    auto checkpointer = serve::Checkpointer::Create(
        service->get(), {dir, 60000, /*keep=*/3}, redesigner->get());
    ASSERT_TRUE(checkpointer.ok());

    // Enough shifted traffic to trip the drift verdict, then wait for the
    // episode to open and checkpoint inside it.
    StreamRows(service->get(), shifted, 0, 2000);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!(*redesigner)->episode_open() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE((*redesigner)->episode_open());
    ASSERT_TRUE((*checkpointer)->WriteNow().ok());
    (*redesigner)->Stop();  // a real crash would not stop it; Stop() only
                            // joins the thread so the scope exit is clean
  }

  // Recovery: the tripped sketches must have survived the crash — that is
  // what lets the new process's redesigner re-open the episode.
  auto recovered = Recover(dir, options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->Health().drifted);
  auto redesigner = serve::Redesigner::Create(recovered.get(), heal);
  ASSERT_TRUE(redesigner.ok());

  // Keep streaming post-shift traffic until the heal lands.
  const uint64_t recovered_version = recovered->plan_version();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  size_t next = 2000;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto health = recovered->Health();
    if (!health.drifted && recovered->plan_version() > recovered_version) break;
    const size_t src = next % shifted.size();
    const size_t end = std::min(src + 500, shifted.size());
    StreamRows(recovered.get(), shifted, src, end);
    next += end - src;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (*redesigner)->Stop();
  const auto health = recovered->Health();
  EXPECT_FALSE(health.drifted) << "self-heal did not converge after crash";
  EXPECT_GT(recovered->plan_version(), recovered_version);
  EXPECT_TRUE(health.recovered);
}

}  // namespace
}  // namespace otfair
