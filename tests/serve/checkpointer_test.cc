// Checkpoint subsystem contracts:
//
//  - serialize -> parse is a bit-identical round trip for every field,
//    including the channel sketches;
//  - every corruption class (truncation at any prefix, bit flips,
//    oversize, wrong magic/version, CRC mismatch) is rejected with a
//    clean Status — never a crash, hang, or huge allocation; a version-1
//    file (the format before the sketches became the only observed state)
//    is unsupported, and recovery skips it;
//  - recovery picks the newest intact generation, falling back past
//    corrupt files, and reports kNotFound when nothing validates;
//  - the live Checkpointer writes parseable generations under concurrent
//    ReloadPlan traffic and prunes beyond its retention window.

#include "serve/checkpointer.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "core/designer.h"
#include "sim/gaussian_mixture.h"

namespace otfair::serve {
namespace {

core::RepairPlanSet DesignedPlans(uint64_t seed, size_t n_q = 20) {
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(400, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok());
  core::DesignOptions options;
  options.n_q = n_q;
  auto plans = core::DesignDistributionalRepair(*research, options);
  EXPECT_TRUE(plans.ok());
  return *plans;
}

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

/// A populated CheckpointData: real plans and sketches from a service that
/// has observed traffic.
CheckpointData MakeCheckpoint(uint64_t seed, uint64_t generation = 7) {
  auto service = RepairService::Create(DesignedPlans(seed), {});
  EXPECT_TRUE(service.ok());
  common::Rng rng(seed + 100);
  RowResponse response;
  for (size_t i = 0; i < 400; ++i) {
    RowRequest request;
    request.session_id = 0;
    request.row_index = i;
    request.u = static_cast<int>(i % 2);
    request.s = static_cast<int>((i / 2) % 2);
    request.features = {rng.Normal(), rng.Normal()};
    EXPECT_TRUE((*service)->RepairRow(request, &response).ok());
  }
  RepairService::CheckpointState state = (*service)->StateForCheckpoint();
  CheckpointData data;
  data.generation = generation;
  data.plan_version = state.plan_version;
  data.degraded = state.degraded;
  data.episode_open = true;
  data.seed = (*service)->options().seed;
  data.mode = static_cast<uint32_t>((*service)->options().mode);
  data.strength = (*service)->options().strength;
  data.plans = std::move(state.plans);
  data.sketches = std::move(state.sketches);
  return data;
}

TEST(CheckpointSerializationTest, RoundTripIsBitIdentical) {
  const CheckpointData data = MakeCheckpoint(1);
  const std::string bytes = SerializeCheckpoint(data);
  auto parsed = ParseCheckpoint(bytes.data(), bytes.size(), "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->generation, data.generation);
  EXPECT_EQ(parsed->plan_version, data.plan_version);
  EXPECT_EQ(parsed->degraded, data.degraded);
  EXPECT_EQ(parsed->episode_open, data.episode_open);
  EXPECT_EQ(parsed->seed, data.seed);
  EXPECT_EQ(parsed->mode, data.mode);
  EXPECT_EQ(parsed->strength, data.strength);
  // Plan and sketches re-serialize to the same bytes — the strongest
  // bit-identity statement without field-by-field plumbing.
  EXPECT_EQ(parsed->plans.SerializeToString(), data.plans.SerializeToString());
  ASSERT_EQ(parsed->sketches.size(), data.sketches.size());
  for (size_t i = 0; i < data.sketches.size(); ++i) {
    EXPECT_EQ(parsed->sketches[i].count(), data.sketches[i].count());
    if (data.sketches[i].count() > 0) {
      EXPECT_EQ(parsed->sketches[i].Quantile(0.5), data.sketches[i].Quantile(0.5));
      EXPECT_EQ(parsed->sketches[i].min(), data.sketches[i].min());
      EXPECT_EQ(parsed->sketches[i].max(), data.sketches[i].max());
    }
  }
  // Determinism: serializing the parsed copy reproduces the input bytes.
  EXPECT_EQ(SerializeCheckpoint(*parsed), bytes);
}

TEST(CheckpointSerializationTest, EveryTruncationIsRejectedCleanly) {
  const std::string bytes = SerializeCheckpoint(MakeCheckpoint(2));
  // Every 97th prefix plus all short-header lengths: the parser must
  // reject each with a Status (size mismatch at the header), not read
  // out of bounds.
  for (size_t len = 0; len < bytes.size(); len = len < 32 ? len + 1 : len + 97) {
    auto parsed = ParseCheckpoint(bytes.data(), len, "trunc");
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(CheckpointSerializationTest, OversizedPayloadIsRejected) {
  std::string bytes = SerializeCheckpoint(MakeCheckpoint(3));
  bytes += "extra trailing junk";
  auto parsed = ParseCheckpoint(bytes.data(), bytes.size(), "oversize");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("size"), std::string::npos);
}

TEST(CheckpointSerializationTest, BitFlipsAreCaughtByCrc) {
  const std::string pristine = SerializeCheckpoint(MakeCheckpoint(4));
  // Flip one bit at a spread of positions across header and payload.
  for (size_t pos = 0; pos < pristine.size(); pos += 211) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    auto parsed = ParseCheckpoint(bytes.data(), bytes.size(), "flip");
    EXPECT_FALSE(parsed.ok()) << "bit flip at " << pos << " went unnoticed";
  }
}

TEST(CheckpointSerializationTest, WrongMagicAndVersionAreRejected) {
  const std::string pristine = SerializeCheckpoint(MakeCheckpoint(5));
  {
    std::string bytes = pristine;
    bytes[0] = 'X';
    auto parsed = ParseCheckpoint(bytes.data(), bytes.size(), "magic");
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("magic"), std::string::npos);
  }
  {
    std::string bytes = pristine;
    bytes[4] = 99;  // format version field
    auto parsed = ParseCheckpoint(bytes.data(), bytes.size(), "version");
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
  }
}

TEST(CheckpointRecoveryTest, PicksNewestIntactGeneration) {
  const std::string dir = TempDirFor("recover_newest");
  for (uint64_t gen : {1u, 2u, 3u}) {
    CheckpointData data = MakeCheckpoint(6, gen);
    ASSERT_TRUE(
        common::AtomicWriteFile(CheckpointPath(dir, gen), SerializeCheckpoint(data)).ok());
  }
  auto recovered = RecoverNewestCheckpoint(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->data.generation, 3u);
  EXPECT_TRUE(recovered->skipped.empty());
}

TEST(CheckpointRecoveryTest, FallsBackPastCorruptNewerGenerations) {
  const std::string dir = TempDirFor("recover_fallback");
  for (uint64_t gen : {1u, 2u}) {
    CheckpointData data = MakeCheckpoint(7, gen);
    ASSERT_TRUE(
        common::AtomicWriteFile(CheckpointPath(dir, gen), SerializeCheckpoint(data)).ok());
  }
  // Generation 3: torn write (truncated). Generation 4: bit flip.
  std::string bytes = SerializeCheckpoint(MakeCheckpoint(7, 3));
  ASSERT_TRUE(common::AtomicWriteFile(CheckpointPath(dir, 3),
                                      bytes.substr(0, bytes.size() / 2))
                  .ok());
  bytes = SerializeCheckpoint(MakeCheckpoint(7, 4));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  ASSERT_TRUE(common::AtomicWriteFile(CheckpointPath(dir, 4), bytes).ok());

  auto recovered = RecoverNewestCheckpoint(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->data.generation, 2u);
  // Both bad generations are reported, newest first.
  ASSERT_EQ(recovered->skipped.size(), 2u);
  EXPECT_NE(recovered->skipped[0].find("00000000000000000004"), std::string::npos);
  EXPECT_NE(recovered->skipped[1].find("00000000000000000003"), std::string::npos);
}

TEST(CheckpointRecoveryTest, MismatchedFilenameGenerationIsSkipped) {
  const std::string dir = TempDirFor("recover_rename");
  // An intact generation-2 checkpoint renamed to claim generation 9: the
  // filename key and the payload's generation field must agree, so a
  // "newest" forged by renaming cannot shadow the real newest.
  CheckpointData data = MakeCheckpoint(8, 2);
  ASSERT_TRUE(
      common::AtomicWriteFile(CheckpointPath(dir, 9), SerializeCheckpoint(data)).ok());
  CheckpointData real = MakeCheckpoint(8, 3);
  ASSERT_TRUE(
      common::AtomicWriteFile(CheckpointPath(dir, 3), SerializeCheckpoint(real)).ok());
  auto recovered = RecoverNewestCheckpoint(dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->data.generation, 3u);
  ASSERT_EQ(recovered->skipped.size(), 1u);
}

TEST(CheckpointRecoveryTest, VersionOneCheckpointIsSkipped) {
  // Version 1 (drift histograms and a sketch cadence beside the sketches)
  // is no longer read: recovery skips it like any unsupported version and
  // falls back to the newest version-2 generation, or reports kNotFound so
  // the caller cold-starts.
  const std::string dir = TempDirFor("recover_v1");
  std::string v1 = SerializeCheckpoint(MakeCheckpoint(14, 2));
  const uint32_t version_one = 1;
  std::memcpy(&v1[4], &version_one, sizeof(version_one));  // the header's version field
  ASSERT_TRUE(common::AtomicWriteFile(CheckpointPath(dir, 2), v1).ok());
  auto alone = RecoverNewestCheckpoint(dir);
  ASSERT_FALSE(alone.ok());
  EXPECT_EQ(alone.status().code(), common::StatusCode::kNotFound);
  EXPECT_NE(alone.status().message().find("unsupported checkpoint version"), std::string::npos)
      << alone.status();

  ASSERT_TRUE(common::AtomicWriteFile(CheckpointPath(dir, 1),
                                      SerializeCheckpoint(MakeCheckpoint(14, 1)))
                  .ok());
  auto recovered = RecoverNewestCheckpoint(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->data.generation, 1u);
  ASSERT_EQ(recovered->skipped.size(), 1u);
  EXPECT_NE(recovered->skipped[0].find("unsupported checkpoint version"), std::string::npos);
}

TEST(CheckpointRecoveryTest, NothingIntactIsNotFound) {
  const std::string missing = ::testing::TempDir() + "/recover_missing_dir";
  EXPECT_EQ(RecoverNewestCheckpoint(missing).status().code(),
            common::StatusCode::kNotFound);

  const std::string dir = TempDirFor("recover_all_corrupt");
  ASSERT_TRUE(common::AtomicWriteFile(CheckpointPath(dir, 1), "garbage").ok());
  auto recovered = RecoverNewestCheckpoint(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), common::StatusCode::kNotFound);
  // The rejection reason is surfaced for the operator's log line.
  EXPECT_NE(recovered.status().message().find("00000000000000000001"), std::string::npos);
}

TEST(CheckpointerTest, WriteNowLandsParseableGenerationsAndCounts) {
  const std::string dir = TempDirFor("writer_basic");
  auto service = RepairService::Create(DesignedPlans(9), {});
  ASSERT_TRUE(service.ok());
  CheckpointerOptions options;
  options.dir = dir;
  options.interval_ms = 60000;  // effectively manual
  auto checkpointer = Checkpointer::Create(service->get(), options);
  ASSERT_TRUE(checkpointer.ok()) << checkpointer.status().ToString();
  ASSERT_TRUE((*checkpointer)->WriteNow().ok());
  ASSERT_TRUE((*checkpointer)->WriteNow().ok());
  EXPECT_EQ((*checkpointer)->generation(), 2u);
  auto loaded = LoadCheckpointFile(CheckpointPath(dir, 2));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(loaded->plan_version, 1u);
  const auto metrics = (*service)->metrics().Snapshot(0);
  EXPECT_EQ(metrics.checkpoints_written, 2u);
  EXPECT_EQ(metrics.checkpoints_failed, 0u);
}

TEST(CheckpointerTest, StartGenerationSeedsPastRecoveredFiles) {
  const std::string dir = TempDirFor("writer_seeded");
  auto service = RepairService::Create(DesignedPlans(10), {});
  ASSERT_TRUE(service.ok());
  CheckpointerOptions options;
  options.dir = dir;
  options.interval_ms = 60000;
  auto checkpointer = Checkpointer::Create(service->get(), options,
                                           /*redesigner=*/nullptr,
                                           /*start_generation=*/41);
  ASSERT_TRUE(checkpointer.ok());
  ASSERT_TRUE((*checkpointer)->WriteNow().ok());
  EXPECT_EQ((*checkpointer)->generation(), 42u);
  EXPECT_TRUE(common::FileExists(CheckpointPath(dir, 42)));
}

TEST(CheckpointerTest, PrunesBeyondRetentionWindow) {
  const std::string dir = TempDirFor("writer_prune");
  auto service = RepairService::Create(DesignedPlans(11), {});
  ASSERT_TRUE(service.ok());
  CheckpointerOptions options;
  options.dir = dir;
  options.interval_ms = 60000;
  options.keep = 2;
  auto checkpointer = Checkpointer::Create(service->get(), options);
  ASSERT_TRUE(checkpointer.ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE((*checkpointer)->WriteNow().ok());
  EXPECT_FALSE(common::FileExists(CheckpointPath(dir, 1)));
  EXPECT_FALSE(common::FileExists(CheckpointPath(dir, 3)));
  EXPECT_TRUE(common::FileExists(CheckpointPath(dir, 4)));
  EXPECT_TRUE(common::FileExists(CheckpointPath(dir, 5)));
}

TEST(CheckpointerTest, FailedWriteCountsAndDoesNotAdvanceGeneration) {
  auto service = RepairService::Create(DesignedPlans(12), {});
  ASSERT_TRUE(service.ok());
  const std::string dir = TempDirFor("writer_failing");
  CheckpointerOptions options;
  options.dir = dir;
  options.interval_ms = 60000;
  auto checkpointer = Checkpointer::Create(service->get(), options);
  ASSERT_TRUE(checkpointer.ok());
  // Remove the directory out from under the writer: the temp-file create
  // fails with ENOENT for any uid (chmod tricks don't fail under root).
  ASSERT_EQ(::rmdir(dir.c_str()), 0);
  const common::Status status = (*checkpointer)->WriteNow();
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ((*checkpointer)->generation(), 0u);
  EXPECT_EQ((*service)->metrics().Snapshot(0).checkpoints_failed, 1u);
  // Next write (directory restored) succeeds and lands generation 1.
  ASSERT_TRUE((*checkpointer)->WriteNow().ok());
  EXPECT_EQ((*checkpointer)->generation(), 1u);
}

TEST(CheckpointerRaceTest, CheckpointDuringReloadAlwaysWritesCoherentFiles) {
  // A writer thread checkpoints continuously while the main thread
  // hot-swaps plans. Every landed file must parse end to end and carry a
  // plan version that existed (1..kReloads+1) — the single-snapshot
  // capture contract: no torn plan/version mixes.
  const std::string dir = TempDirFor("race_reload");
  auto service = RepairService::Create(DesignedPlans(13), {});
  ASSERT_TRUE(service.ok());
  CheckpointerOptions options;
  options.dir = dir;
  options.interval_ms = 60000;
  options.keep = 1000;  // retain everything; the test parses all files
  auto checkpointer = Checkpointer::Create(service->get(), options);
  ASSERT_TRUE(checkpointer.ok());

  constexpr int kReloads = 20;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE((*checkpointer)->WriteNow().ok());
    }
  });
  core::RepairPlanSet plans = DesignedPlans(13);
  for (int i = 0; i < kReloads; ++i) {
    ASSERT_TRUE((*service)->ReloadPlan(plans).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  const uint64_t final_version = (*service)->plan_version();
  EXPECT_EQ(final_version, static_cast<uint64_t>(kReloads) + 1);
  uint64_t last_version = 0;
  for (uint64_t gen = 1; gen <= (*checkpointer)->generation(); ++gen) {
    auto loaded = LoadCheckpointFile(CheckpointPath(dir, gen));
    ASSERT_TRUE(loaded.ok()) << "generation " << gen << ": "
                             << loaded.status().ToString();
    EXPECT_GE(loaded->plan_version, 1u);
    EXPECT_LE(loaded->plan_version, final_version);
    // Monotone: a later checkpoint never carries an older plan version
    // (last-writer-wins reloads + coherent capture).
    EXPECT_GE(loaded->plan_version, last_version) << "generation " << gen;
    last_version = loaded->plan_version;
  }
}

}  // namespace
}  // namespace otfair::serve
