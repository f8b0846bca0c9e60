// Serving-layer walkthrough: designs a plan on simulated research data,
// stands up a serve::RepairService, runs two concurrent client sessions
// against it (each through a micro-batching Batcher of its own), hot-swaps
// the plan mid-stream, and prints the metrics/health snapshots — the
// in-process equivalent of `otfair serve`.
//
// Run:  ./serve_session [--rows=20000] [--sessions=2] [--threads=2]

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/designer.h"
#include "serve/batcher.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"

int main(int argc, char** argv) {
  otfair::common::FlagParser flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 20000));
  const size_t sessions = static_cast<size_t>(flags.GetInt("sessions", 2));
  const int threads = flags.GetInt("threads", 2);

  // Design once on a small research set (the paper's Algorithm 1)...
  otfair::common::Rng rng(7);
  auto research = otfair::sim::SimulateGaussianMixture(
      1000, otfair::sim::GaussianSimConfig::PaperDefault(), rng);
  auto archive = otfair::sim::SimulateGaussianMixture(
      rows, otfair::sim::GaussianSimConfig::PaperDefault(), rng);
  if (!research.ok() || !archive.ok()) {
    std::fprintf(stderr, "simulation failed\n");
    return 1;
  }
  auto plans = otfair::core::DesignDistributionalRepair(*research, {});
  if (!plans.ok()) {
    std::fprintf(stderr, "design failed: %s\n", plans.status().ToString().c_str());
    return 1;
  }

  // ...then serve the archival stream from a long-lived service.
  otfair::serve::ServiceOptions service_options;
  service_options.threads = threads;
  auto service = otfair::serve::RepairService::Create(*plans, service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "service failed: %s\n", service.status().ToString().c_str());
    return 1;
  }
  std::atomic<uint64_t> delivered{0};
  const auto sink = [&](const otfair::serve::RowResponse& response) {
    if (response.status.ok()) delivered.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> clients;
  for (size_t session = 0; session < sessions; ++session) {
    clients.emplace_back([&, session] {
      // One batcher per client thread; it flushes its last partial batch
      // when it goes out of scope.
      otfair::serve::Batcher batcher(service->get(), 256, sink);
      for (size_t i = 0; i < archive->size(); ++i) {
        otfair::serve::RowRequest request;
        request.session_id = session;
        request.row_index = i;
        request.u = archive->u(i);
        request.s = archive->s(i);
        request.features = archive->Row(i);
        batcher.Submit(std::move(request));
      }
    });
  }

  // Hot-swap the plan while the sessions stream: the snapshot swap means
  // no request is dropped and — because repair randomness is a pure
  // function of (seed, session, row) — the outputs do not change either.
  if (!(*service)->ReloadPlan(std::move(*plans)).ok()) {
    std::fprintf(stderr, "reload failed\n");
    return 1;
  }

  for (std::thread& client : clients) client.join();

  const auto metrics = (*service)->metrics().Snapshot();
  const auto health = (*service)->Health();
  std::printf("delivered %llu rows across %zu sessions (plan v%llu)\n",
              static_cast<unsigned long long>(delivered.load()), sessions,
              static_cast<unsigned long long>((*service)->plan_version()));
  std::printf("metrics: %s\n", metrics.ToJson().c_str());
  std::printf("health:  %s\n", health.ToJson().c_str());
  return health.drifted ? 3 : 0;
}
