// Self-heal loop contract tests. The load-bearing ones:
//
//  - A drifted stream with ripe sketches redesigns and hot-swaps: plan
//    version bumps, drift clears, service stays healthy.
//  - EVERY injected fault (throw, timeout, invalid plan, slow sketch
//    merge under a tiny deadline) leaves the service serving bit-identical
//    output on the old snapshot — a failed redesign is invisible to
//    traffic.
//  - Retry exhaustion flags `degraded` (sticky, still serving); a
//    transient fault is absorbed by the retry budget without degrading.

#include "serve/redesigner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/designer.h"
#include "serve/fault_injector.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"
#include "stats/quantile_sketch.h"

namespace otfair::serve {
namespace {

using Clock = std::chrono::steady_clock;

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
  core::RepairPlanSet plans;
};

Fixture MakeFixture(uint64_t seed, size_t archive_rows = 4000) {
  Fixture fx;
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(800, sim::GaussianSimConfig::PaperDefault(), rng);
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

/// Streams `count` rows (the whole archive when 0) through the service
/// with every feature moved by `shift`, at row indices starting from
/// `begin` (archive rows recycle modulo its size) — enough to trip drift
/// and fill every channel's sketch, and reusable for continuing traffic.
void StreamShifted(RepairService* service, const data::Dataset& archive, double shift,
                   uint64_t begin = 0, size_t count = 0) {
  const size_t n = count == 0 ? archive.size() : count;
  std::vector<RowRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t src = static_cast<size_t>((begin + i) % archive.size());
    RowRequest request;
    request.session_id = 0;
    request.row_index = begin + i;
    request.u = archive.u(src);
    request.s = archive.s(src);
    request.features = archive.Row(src);
    for (double& x : request.features) x += shift;
    requests.push_back(std::move(request));
  }
  std::vector<RowResponse> responses;
  service->RepairBatch(requests.data(), requests.size(), &responses);
  for (const RowResponse& response : responses) ASSERT_TRUE(response.status.ok());
}

/// The service under test, with an optional fault spec.
std::unique_ptr<RepairService> MakeService(Fixture& fx, std::string faults = "") {
  ServiceOptions options;
  options.faults = std::move(faults);
  auto service = RepairService::Create(fx.plans, options);
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(*service);
}

/// A redesigner whose background thread is effectively inert (huge poll
/// interval), so tests drive AttemptRedesign() synchronously.
std::unique_ptr<Redesigner> MakeInertRedesigner(RepairService* service,
                                                RedesignerOptions options = {}) {
  options.poll_interval_ms = 1000000;
  auto redesigner = Redesigner::Create(service, options);
  EXPECT_TRUE(redesigner.ok()) << redesigner.status();
  return std::move(*redesigner);
}

/// Waits for `predicate` while keeping shifted traffic flowing at fresh
/// row indices — the self-heal loop stashes the sketches when an episode
/// opens and redesigns from the rows that arrive after, so it needs live
/// post-drift rows to ripen that window.
bool WaitWithShiftedTraffic(RepairService* service, const data::Dataset& archive,
                            uint64_t* next_row, const std::function<bool()>& predicate,
                            int timeout_ms = 90000) {
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (predicate()) return true;
    StreamShifted(service, archive, 2.0, *next_row, 200);
    *next_row += 200;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// --- FaultInjector unit tests ----------------------------------------------

TEST(FaultInjectorTest, DefaultInjectorIsInert) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.ShouldInject(Fault::kRedesignThrow));
  EXPECT_EQ(injector.fired(Fault::kRedesignThrow), 0u);
}

TEST(FaultInjectorTest, ParsesCountedAndUnlimitedSpecs) {
  auto injector = FaultInjector::Parse("redesign_throw:2,invalid_plan");
  ASSERT_TRUE(injector.ok()) << injector.status();
  EXPECT_TRUE(injector->armed());
  // Counted budget: exactly 2 fires, then disarmed.
  EXPECT_TRUE(injector->ShouldInject(Fault::kRedesignThrow));
  EXPECT_TRUE(injector->ShouldInject(Fault::kRedesignThrow));
  EXPECT_FALSE(injector->ShouldInject(Fault::kRedesignThrow));
  EXPECT_EQ(injector->fired(Fault::kRedesignThrow), 2u);
  // Unlimited budget never disarms.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(injector->ShouldInject(Fault::kInvalidPlan));
  EXPECT_TRUE(injector->armed());
  // Unrequested faults stay silent.
  EXPECT_FALSE(injector->ShouldInject(Fault::kRedesignTimeout));
}

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultInjector::Parse("no_such_fault").ok());
  EXPECT_FALSE(FaultInjector::Parse("redesign_throw:0").ok());
  EXPECT_FALSE(FaultInjector::Parse("redesign_throw:-1").ok());
  EXPECT_FALSE(FaultInjector::Parse("redesign_throw:abc").ok());
  EXPECT_FALSE(FaultInjector::Parse(",").ok());
  EXPECT_TRUE(FaultInjector::Parse("").ok());  // empty = inactive, not an error
  EXPECT_FALSE(FaultInjector::Parse("")->armed());
}

TEST(FaultInjectorTest, ReadsSpecFromEnvironment) {
  ASSERT_EQ(setenv("OTFAIR_FAULTS", "slow_sketch_merge:1", 1), 0);
  auto injector = FaultInjector::FromEnv();
  ASSERT_TRUE(injector.ok()) << injector.status();
  EXPECT_TRUE(injector->ShouldInject(Fault::kSlowSketchMerge));
  EXPECT_FALSE(injector->ShouldInject(Fault::kSlowSketchMerge));
  ASSERT_EQ(setenv("OTFAIR_FAULTS", "garbage_spec", 1), 0);
  EXPECT_FALSE(FaultInjector::FromEnv().ok());  // malformed env is surfaced
  ASSERT_EQ(unsetenv("OTFAIR_FAULTS"), 0);
  auto unset = FaultInjector::FromEnv();
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset->armed());
}

TEST(FaultInjectorTest, FaultNamesRoundTripThroughParser) {
  for (int i = 0; i < kFaultCount; ++i) {
    const Fault fault = static_cast<Fault>(i);
    auto injector = FaultInjector::Parse(FaultName(fault) + ":1");
    ASSERT_TRUE(injector.ok()) << FaultName(fault);
    EXPECT_TRUE(injector->ShouldInject(fault)) << FaultName(fault);
  }
}

// --- Redesigner construction ------------------------------------------------

TEST(RedesignerTest, RejectsBadOptions) {
  Fixture fx = MakeFixture(2);
  auto service = MakeService(fx);
  RedesignerOptions bad;
  bad.max_retries = 0;
  EXPECT_FALSE(Redesigner::Create(service.get(), bad).ok());
  bad = {};
  bad.backoff_max_ms = 1;
  bad.backoff_initial_ms = 10;  // max < initial
  EXPECT_FALSE(Redesigner::Create(service.get(), bad).ok());
  auto bad_faults = MakeService(fx, /*faults=*/"not_a_fault");
  EXPECT_FALSE(Redesigner::Create(bad_faults.get(), {}).ok());
  EXPECT_FALSE(Redesigner::Create(nullptr, {}).ok());
}

// --- Synchronous redesign attempts ------------------------------------------

TEST(RedesignerTest, RedesignFromShiftedStreamHotSwapsAndClearsDrift) {
  Fixture fx = MakeFixture(3);
  auto service = MakeService(fx);
  StreamShifted(service.get(), fx.archive, 2.0);
  ASSERT_TRUE(service->Health().drifted);
  const core::DriftReport before = service->DriftSnapshot();

  auto redesigner = MakeInertRedesigner(service.get());
  const common::Status status = redesigner->AttemptRedesign();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(service->plan_version(), 2u);
  EXPECT_EQ(service->metrics().Snapshot().reloads, 1u);
  EXPECT_FALSE(service->degraded());
  // Drift restarts against the redesigned plan; the shifted stream that
  // tripped the old plan must now fit.
  EXPECT_EQ(service->Health().values_observed, 0u);
  StreamShifted(service.get(), fx.archive, 2.0);
  const ServiceHealth after = service->Health();
  EXPECT_FALSE(after.drifted) << "worst_w1 " << after.worst_w1 << " (was "
                              << before.worst_w1 << ")";
  EXPECT_LT(after.worst_w1, before.worst_w1);
}

TEST(RedesignerTest, RedesignedPlanKeepsGeometry) {
  Fixture fx = MakeFixture(4);
  auto service = MakeService(fx);
  const RepairService::PlanGeometry before = service->Geometry();
  StreamShifted(service.get(), fx.archive, 2.0);
  auto redesigner = MakeInertRedesigner(service.get());
  ASSERT_TRUE(redesigner->AttemptRedesign().ok());
  const RepairService::PlanGeometry after = service->Geometry();
  EXPECT_EQ(after.n_q, before.n_q);
  EXPECT_EQ(after.feature_names, before.feature_names);
  EXPECT_EQ(after.lambdas, before.lambdas);
  EXPECT_EQ(after.target_t, before.target_t);
}

TEST(RedesignerTest, StashThatIsNotAPrefixIsRefused) {
  // A stash from another snapshot (here: taken before a reload restarted
  // the sketches) does not describe a prefix of the live stream.
  Fixture fx = MakeFixture(13);
  auto service = MakeService(fx);
  StreamShifted(service.get(), fx.archive, 2.0);
  const std::vector<stats::QuantileSketch> stale = service->SketchSnapshot();
  ASSERT_TRUE(service->ReloadPlan(fx.plans).ok());
  StreamShifted(service.get(), fx.archive, 2.0, 0, 1000);
  auto redesigner = MakeInertRedesigner(service.get());
  EXPECT_EQ(redesigner->AttemptRedesign(&stale).code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(service->plan_version(), 2u);
  // The live stash redesigns from the rows after it.
  const std::vector<stats::QuantileSketch> stash = service->SketchSnapshot();
  StreamShifted(service.get(), fx.archive, 2.0, 1000, 3000);
  ASSERT_TRUE(redesigner->AttemptRedesign(&stash).ok());
  EXPECT_EQ(service->plan_version(), 3u);
}

TEST(RedesignerTest, UndriftedServiceDoesNotRedesign) {
  // The background loop must not touch a healthy service: stream fitting
  // traffic, let several polls pass, and verify nothing changed.
  Fixture fx = MakeFixture(5, /*archive_rows=*/2000);
  auto service = MakeService(fx);
  StreamShifted(service.get(), fx.archive, 0.0);
  ASSERT_FALSE(service->Health().drifted);
  RedesignerOptions options;
  options.poll_interval_ms = 5;
  auto redesigner = Redesigner::Create(service.get(), options);
  ASSERT_TRUE(redesigner.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(service->metrics().Snapshot().redesign_episodes, 0u);
  EXPECT_EQ(service->plan_version(), 1u);
}

/// Shared harness for the fault legs: trip drift, inject `faults`, attempt
/// one redesign, and require the failure to be invisible to traffic — the
/// old snapshot keeps serving bit-identical output.
void RunFaultLeg(const std::string& faults, common::StatusCode expected_code,
                 RedesignerOptions options = {}) {
  Fixture fx = MakeFixture(6);
  auto service = MakeService(fx, faults);
  StreamShifted(service.get(), fx.archive, 2.0);
  ASSERT_TRUE(service->Health().drifted);

  RowRequest probe;
  probe.session_id = 9;
  probe.row_index = 42;
  probe.u = fx.archive.u(0);
  probe.s = fx.archive.s(0);
  probe.features = fx.archive.Row(0);
  RowResponse before;
  ASSERT_TRUE(service->RepairRow(probe, &before).ok());

  auto redesigner = MakeInertRedesigner(service.get(), options);
  const common::Status status = redesigner->AttemptRedesign();
  ASSERT_FALSE(status.ok()) << "fault spec: " << faults;
  EXPECT_EQ(status.code(), expected_code) << status;

  // The failed attempt is invisible: same plan, same bit-identical output,
  // not degraded (a single direct attempt is not retry exhaustion).
  EXPECT_EQ(service->plan_version(), 1u);
  EXPECT_FALSE(service->degraded());
  RowResponse after;
  ASSERT_TRUE(service->RepairRow(probe, &after).ok());
  EXPECT_EQ(after.repaired, before.repaired);
  EXPECT_EQ(service->metrics().Snapshot().reloads, 0u);
}

TEST(RedesignerFaultTest, RedesignThrowLeavesOldSnapshotServing) {
  RunFaultLeg("redesign_throw", common::StatusCode::kInternal);
}

TEST(RedesignerFaultTest, InvalidPlanIsRejectedByValidation) {
  RunFaultLeg("invalid_plan", common::StatusCode::kFailedPrecondition);
}

TEST(RedesignerFaultTest, TimeoutDiscardsLateResult) {
  RedesignerOptions options;
  options.redesign_timeout_ms = 50;
  RunFaultLeg("redesign_timeout", common::StatusCode::kUnavailable, options);
}

TEST(RedesignerFaultTest, SlowSketchMergeUnderTinyDeadlineTimesOut) {
  RedesignerOptions options;
  options.redesign_timeout_ms = 5;  // the injected 20 ms merge stall blows it
  RunFaultLeg("slow_sketch_merge", common::StatusCode::kUnavailable, options);
}

TEST(RedesignerFaultTest, ServiceOptionsFaultSpecIsHonored) {
  // Faults arrive through ServiceOptions (the CLI --faults path).
  Fixture fx = MakeFixture(7);
  auto service = MakeService(fx, /*faults=*/"redesign_throw:1");
  StreamShifted(service.get(), fx.archive, 2.0);
  auto redesigner = MakeInertRedesigner(service.get());
  EXPECT_EQ(redesigner->AttemptRedesign().code(), common::StatusCode::kInternal);
  // Budget of 1 consumed: the next attempt sails through and hot-swaps.
  EXPECT_TRUE(redesigner->AttemptRedesign().ok());
  EXPECT_EQ(service->plan_version(), 2u);
}

// --- Background loop --------------------------------------------------------

TEST(RedesignerLoopTest, SelfHealsInBackgroundEndToEnd) {
  Fixture fx = MakeFixture(8);
  auto service = MakeService(fx);
  StreamShifted(service.get(), fx.archive, 2.0);
  ASSERT_TRUE(service->Health().drifted);
  RedesignerOptions options;
  options.poll_interval_ms = 5;
  options.backoff_initial_ms = 1;
  auto redesigner = Redesigner::Create(service.get(), options);
  ASSERT_TRUE(redesigner.ok());
  uint64_t next_row = fx.archive.size();
  // The swap bumps the version before the episode's counters are written;
  // wait for the episode to close before reading them.
  ASSERT_TRUE(WaitWithShiftedTraffic(service.get(), fx.archive, &next_row, [&] {
    return service->plan_version() >= 2 && !(*redesigner)->busy();
  })) << "self-heal did not reload; last error: " << (*redesigner)->last_error();
  const ServiceHealth health = service->Health();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.reloads_total, 1u);
  EXPECT_STREQ(health.state(), "healthy");
  const MetricsSnapshot metrics = service->metrics().Snapshot();
  EXPECT_EQ(metrics.redesign_episodes, 1u);
  EXPECT_EQ(metrics.redesign_reloads, 1u);
  EXPECT_EQ(metrics.redesign_gave_up, 0u);
}

TEST(RedesignerLoopTest, RetryExhaustionDegradesButKeepsServing) {
  Fixture fx = MakeFixture(9);
  // Unlimited: every attempt fails.
  auto service = MakeService(fx, /*faults=*/"redesign_throw");
  StreamShifted(service.get(), fx.archive, 2.0);
  RedesignerOptions options;
  options.poll_interval_ms = 5;
  options.max_retries = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  options.cooldown_ms = 60000;  // one episode only
  auto redesigner = Redesigner::Create(service.get(), options);
  ASSERT_TRUE(redesigner.ok());
  uint64_t next_row = fx.archive.size();
  ASSERT_TRUE(WaitWithShiftedTraffic(service.get(), fx.archive, &next_row,
                                     [&] { return service->degraded(); }));
  const MetricsSnapshot metrics = service->metrics().Snapshot();
  EXPECT_EQ(metrics.redesign_gave_up, 1u);
  EXPECT_EQ(metrics.redesign_attempts, 2u);
  EXPECT_EQ(metrics.redesign_failures, 2u);
  EXPECT_EQ(metrics.redesign_reloads, 0u);
  EXPECT_EQ((*redesigner)->last_error().code(), common::StatusCode::kInternal);

  // Degraded, not dead: the old snapshot still serves, health says so.
  const ServiceHealth health = service->Health();
  EXPECT_STREQ(health.state(), "degraded");
  EXPECT_EQ(health.plan_version, 1u);
  RowRequest probe;
  probe.u = fx.archive.u(0);
  probe.s = fx.archive.s(0);
  probe.features = fx.archive.Row(0);
  RowResponse response;
  EXPECT_TRUE(service->RepairRow(probe, &response).ok());

  // Degraded is sticky for the loop (no more episodes)...
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service->metrics().Snapshot().redesign_gave_up, 1u);
  // ...until an operator reload clears it.
  ASSERT_TRUE(service->ReloadPlan(fx.plans).ok());
  EXPECT_FALSE(service->degraded());
  EXPECT_STREQ(service->Health().state(), "healthy");
}

TEST(RedesignerLoopTest, TransientFaultIsAbsorbedByRetries) {
  Fixture fx = MakeFixture(10);
  // The first attempt fails, then clean.
  auto service = MakeService(fx, /*faults=*/"redesign_throw:1");
  StreamShifted(service.get(), fx.archive, 2.0);
  RedesignerOptions options;
  options.poll_interval_ms = 5;
  options.max_retries = 3;
  options.backoff_initial_ms = 1;
  auto redesigner = Redesigner::Create(service.get(), options);
  ASSERT_TRUE(redesigner.ok());
  uint64_t next_row = fx.archive.size();
  // As above: the episode's counters land after the version bump.
  ASSERT_TRUE(WaitWithShiftedTraffic(service.get(), fx.archive, &next_row, [&] {
    return service->plan_version() >= 2 && !(*redesigner)->busy();
  }));
  const MetricsSnapshot metrics = service->metrics().Snapshot();
  EXPECT_EQ(metrics.redesign_failures, 1u);
  EXPECT_EQ(metrics.redesign_reloads, 1u);
  EXPECT_EQ(metrics.redesign_gave_up, 0u);
  EXPECT_FALSE(service->degraded());
}

TEST(RedesignerLoopTest, ReloadMidEpisodeClosesItWithoutCountingAnAttempt) {
  // An operator reload lands while an episode waits for its window: the
  // stash no longer describes the live stream, so the episode closes
  // without an attempt, a failure or a degraded verdict, and the next one
  // opens on the new snapshot and heals it.
  Fixture fx = MakeFixture(14);
  auto service = MakeService(fx);
  StreamShifted(service.get(), fx.archive, 2.0);
  RedesignerOptions options;
  options.poll_interval_ms = 20;
  options.backoff_initial_ms = 1;
  options.fresh_sketch_wait_ms = 600000;  // never fall back to the live sketches
  auto redesigner = Redesigner::Create(service.get(), options);
  ASSERT_TRUE(redesigner.ok());
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (!(*redesigner)->episode_open() && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE((*redesigner)->episode_open());
  // A fresh snapshot, drifted again by fewer rows than the stash holds.
  ASSERT_TRUE(service->ReloadPlan(fx.plans).ok());
  StreamShifted(service.get(), fx.archive, 2.0, 0, 1000);
  uint64_t next_row = 1000;
  ASSERT_TRUE(WaitWithShiftedTraffic(service.get(), fx.archive, &next_row, [&] {
    return service->plan_version() >= 3 && !(*redesigner)->busy();
  })) << "self-heal did not reload; last error: " << (*redesigner)->last_error();
  const MetricsSnapshot metrics = service->metrics().Snapshot();
  EXPECT_EQ(metrics.redesign_attempts, 1u);
  EXPECT_EQ(metrics.redesign_failures, 0u);
  EXPECT_EQ(metrics.redesign_gave_up, 0u);
  EXPECT_EQ(metrics.redesign_reloads, 1u);
  EXPECT_FALSE(service->degraded());
}

TEST(RedesignerLoopTest, QuietStreamFallsBackToPreTripSketches) {
  // A finite stream that ends right after tripping drift (the replay
  // drain scenario): no post-drift traffic ever arrives, so the episode's
  // window never ripens. After fresh_sketch_wait_ms the loop must
  // redesign from the live sketches (everything observed before the
  // trip) instead of waiting forever.
  Fixture fx = MakeFixture(12);
  auto service = MakeService(fx);
  StreamShifted(service.get(), fx.archive, 2.0);  // then silence
  ASSERT_TRUE(service->Health().drifted);
  RedesignerOptions options;
  options.poll_interval_ms = 5;
  options.backoff_initial_ms = 1;
  options.fresh_sketch_wait_ms = 50;
  auto redesigner = Redesigner::Create(service.get(), options);
  ASSERT_TRUE(redesigner.ok());
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  while (service->plan_version() < 2 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(service->plan_version(), 2u)
      << "fallback never reloaded; last error: " << (*redesigner)->last_error();
  EXPECT_FALSE(service->degraded());
}

TEST(RedesignerLoopTest, StopIsIdempotentAndJoins) {
  Fixture fx = MakeFixture(11);
  auto service = MakeService(fx);
  RedesignerOptions options;
  options.poll_interval_ms = 5;
  auto redesigner = Redesigner::Create(service.get(), options);
  ASSERT_TRUE(redesigner.ok());
  (*redesigner)->Stop();
  (*redesigner)->Stop();  // second stop is a no-op, destructor a third
}

// --- The redesign input path: sketches -> pseudo-samples -> designer --------

/// Eight seeded channel sketches (|U| = |S| = 2, dim 2) in the designer's
/// (u * s_levels + s) * dim + k order, with mixed-sign values. Channel 5
/// holds fewer values than the pseudo-sample budget.
std::vector<stats::QuantileSketch> PinnedChannelSketches() {
  std::vector<stats::QuantileSketch> sketches(8);
  common::Rng rng(2024);
  for (size_t u = 0; u < 2; ++u)
    for (size_t s = 0; s < 2; ++s)
      for (size_t k = 0; k < 2; ++k) {
        const size_t c = (u * 2 + s) * 2 + k;
        const double mean = 0.6 * static_cast<double>(s) - 0.3 * static_cast<double>(u) +
                            0.4 * static_cast<double>(k);
        const double sd = 1.0 + 0.25 * static_cast<double>(k);
        const size_t n = c == 5 ? 300 : 2000;
        for (size_t i = 0; i < n; ++i) sketches[c].Add(rng.Normal(mean, sd));
      }
  return sketches;
}

std::vector<std::vector<double>> PseudoSamplesOf(
    const std::vector<stats::QuantileSketch>& sketches) {
  std::vector<std::vector<double>> channels;
  for (const stats::QuantileSketch& sketch : sketches)
    channels.push_back(SketchPseudoSamples(sketch));
  return channels;
}

TEST(RedesignInputTest, PinnedSketchesRedesignToPinnedPlanBytes) {
  const std::vector<std::vector<double>> channels = PseudoSamplesOf(PinnedChannelSketches());
  EXPECT_EQ(channels[0].size(), kRedesignPseudoSamples);
  EXPECT_EQ(channels[5].size(), 300u);
  for (const std::vector<double>& samples : channels)
    EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));
  core::DesignOptions options;
  options.n_q = 64;
  auto plans = core::DesignFromChannelSamples(2, {"x0", "x1"}, 2, 2, channels, options);
  ASSERT_TRUE(plans.ok()) << plans.status();
  // The bytes the per-probe quantile-callback designer produced for these
  // sketches: the sweep, the probes and the designer must not move them.
  // The CRC covers the body; the file's own trailer is the same CRC.
  const std::string bytes = plans->SerializeToString();
  ASSERT_EQ(bytes.size(), 28968u);
  EXPECT_EQ(common::Crc32(bytes.data(), bytes.size() - sizeof(uint32_t)), 0x7B56CACDu);
}

TEST(RedesignInputTest, WrongChannelCountIsInvalidArgument) {
  std::vector<std::vector<double>> channels = PseudoSamplesOf(PinnedChannelSketches());
  channels.pop_back();
  auto plans = core::DesignFromChannelSamples(2, {"x0", "x1"}, 2, 2, channels);
  EXPECT_EQ(plans.status().code(), common::StatusCode::kInvalidArgument) << plans.status();
}

TEST(RedesignInputTest, ThinChannelIsFailedPrecondition) {
  std::vector<stats::QuantileSketch> sketches = PinnedChannelSketches();
  sketches[3].Reset();
  sketches[3].Add(0.5);  // one observation, below min_group_size
  auto plans = core::DesignFromChannelSamples(2, {"x0", "x1"}, 2, 2, PseudoSamplesOf(sketches));
  EXPECT_EQ(plans.status().code(), common::StatusCode::kFailedPrecondition) << plans.status();
  EXPECT_NE(plans.status().message().find("(u=0, s=1, k=1)"), std::string::npos)
      << plans.status();
}

}  // namespace
}  // namespace otfair::serve
