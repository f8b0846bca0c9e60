// Loadgen contract tests: a clean run accounts for every row against the
// server's own counters, the synthetic workload is deterministic,
// per-row error lines are counted as answered rows (never drops), and
// failure modes (unreachable server, bad options) are structured errors —
// not hangs.

#include "net/loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"

namespace otfair::net {
namespace {

struct ServerUnderTest {
  core::RepairPlanSet plans;
  std::unique_ptr<serve::RepairService> service;
  std::unique_ptr<Server> server;
};

ServerUnderTest MakeServer(uint64_t seed, ServerOptions options = {}) {
  ServerUnderTest sut;
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(800, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  EXPECT_TRUE(plans.ok());
  sut.plans = std::move(*plans);
  auto service = serve::RepairService::Create(sut.plans, {});
  EXPECT_TRUE(service.ok());
  sut.service = std::move(*service);
  auto server = Server::Create(sut.service.get(), options);
  EXPECT_TRUE(server.ok());
  sut.server = std::move(*server);
  return sut;
}

TEST(LoadgenTest, CleanRunAccountsForEveryRow) {
  ServerOptions server_options;
  server_options.net_threads = 2;
  ServerUnderTest sut = MakeServer(41, server_options);

  LoadgenOptions options;
  options.port = sut.server->port();
  options.connections = 4;
  options.sessions = 8;
  options.rows_per_session = 200;
  options.window = 32;
  auto result = RunLoadgen(options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->clean()) << result->first_error;
  EXPECT_EQ(result->rows_sent, 1600u);
  EXPECT_EQ(result->rows_ok, 1600u);
  EXPECT_EQ(result->rows_err, 0u);
  EXPECT_EQ(result->latency_samples, 1600u);
  EXPECT_GT(result->rows_per_sec, 0.0);
  EXPECT_GT(result->p50_us, 0.0);
  EXPECT_LE(result->p50_us, result->p99_us);
  EXPECT_LE(result->p99_us, result->max_us);

  // The server's own ledger agrees: every submitted row was repaired.
  EXPECT_EQ(sut.service->metrics().Snapshot().rows_repaired, 1600u);
}

TEST(LoadgenTest, WorkloadIsDeterministicAcrossRuns) {
  ServerUnderTest sut = MakeServer(42);
  LoadgenOptions options;
  options.port = sut.server->port();
  options.connections = 2;
  options.sessions = 4;
  options.rows_per_session = 100;
  auto first = RunLoadgen(options);
  auto second = RunLoadgen(options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->clean() && second->clean());
  EXPECT_EQ(first->rows_sent, second->rows_sent);
  // Identical (seed, session, row) streams: the server saw the same 400
  // rows twice, so its repaired counter is exactly doubled.
  EXPECT_EQ(sut.service->metrics().Snapshot().rows_repaired, 800u);
}

/// A stand-in server that pushes back on every row: it answers each
/// `repair <session> <row> ...` line with `err <session> <row> UNAVAILABLE
/// stub`, the protocol's per-row error shape (the real server emits it for
/// no row it has read). Each of `connections` threads accepts one client
/// and serves it until EOF.
class UnavailableStub {
 public:
  explicit UnavailableStub(size_t connections) {
    auto listener = ListenTcp("127.0.0.1", 0, 16, &port_);
    EXPECT_TRUE(listener.ok()) << listener.status().message();
    if (!listener.ok()) return;
    listener_ = std::move(*listener);
    for (size_t i = 0; i < connections; ++i) threads_.emplace_back([this] { ServeOne(); });
  }
  ~UnavailableStub() {
    for (std::thread& thread : threads_) thread.join();
  }

  uint16_t port() const { return port_; }

 private:
  void ServeOne() {
    // The listener is non-blocking; the accepted socket is blocking.
    int fd = -1;
    for (int tries = 0; fd < 0 && tries < 300; ++tries) {
      pollfd readable{listener_.fd(), POLLIN, 0};
      ::poll(&readable, 1, 100);
      fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    }
    if (fd < 0) return;
    Socket conn(fd);
    std::string in;
    char buf[4096];
    while (true) {
      size_t n = 0;
      bool would_block = false;
      if (!ReadSome(conn.fd(), buf, sizeof(buf), &n, &would_block).ok() || n == 0) return;
      in.append(buf, n);
      std::string out;
      size_t start = 0;
      size_t nl = 0;
      while ((nl = in.find('\n', start)) != std::string::npos) {
        unsigned long long session = 0;
        unsigned long long row = 0;
        if (std::sscanf(in.c_str() + start, "repair %llu %llu", &session, &row) == 2)
          out += "err " + std::to_string(session) + " " + std::to_string(row) +
                 " UNAVAILABLE stub\n";
        start = nl + 1;
      }
      in.erase(0, start);
      for (size_t sent = 0; sent < out.size();) {
        size_t wrote = 0;
        if (!WriteSome(conn.fd(), out.data() + sent, out.size() - sent, &wrote, &would_block)
                 .ok())
          return;
        sent += wrote;
      }
    }
  }

  uint16_t port_ = 0;
  Socket listener_;
  std::vector<std::thread> threads_;
};

TEST(LoadgenTest, BackpressureSurfacesAsRowErrorsNotDrops) {
  UnavailableStub stub(/*connections=*/2);
  LoadgenOptions options;
  options.port = stub.port();
  options.connections = 2;
  options.rows_per_session = 400;
  options.window = 64;
  auto result = RunLoadgen(options);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Every row is accounted for — error lines count as answers, never as
  // silent drops — and the run is not clean.
  EXPECT_EQ(result->rows_sent, 800u);
  EXPECT_EQ(result->rows_ok + result->rows_err, result->rows_sent);
  EXPECT_EQ(result->rows_err, 800u);
  EXPECT_FALSE(result->clean());
  EXPECT_NE(result->first_error.find("UNAVAILABLE stub"), std::string::npos)
      << result->first_error;
}

TEST(LoadgenTest, DimMismatchFailsStructurallyNotSilently) {
  ServerUnderTest sut = MakeServer(44);
  LoadgenOptions options;
  options.port = sut.server->port();
  options.rows_per_session = 10;
  options.dim = 3;  // the served plan is dim 2
  auto result = RunLoadgen(options);
  // The server answers `err - -` (it cannot attribute a line it failed to
  // parse), which the loadgen reports as a run-level error.
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unattributable"), std::string::npos)
      << result.status().message();
}

TEST(LoadgenTest, ConnectFailureIsAnError) {
  // Bind then release an ephemeral port: connecting to it must be refused.
  uint16_t port = 0;
  {
    auto listener = ListenTcp("127.0.0.1", 0, 1, &port);
    ASSERT_TRUE(listener.ok());
  }
  LoadgenOptions options;
  options.port = port;
  options.rows_per_session = 1;
  auto result = RunLoadgen(options);
  EXPECT_FALSE(result.ok());
}

TEST(LoadgenTest, RejectsBadOptions) {
  LoadgenOptions options;
  options.port = 1;
  options.connections = 4;
  options.sessions = 2;  // fewer sessions than connections: no assignment
  EXPECT_FALSE(RunLoadgen(options).ok());
  options.sessions = 0;
  options.window = 0;
  EXPECT_FALSE(RunLoadgen(options).ok());
  options.window = 64;
  options.rows_per_session = 0;
  EXPECT_FALSE(RunLoadgen(options).ok());
}

TEST(LoadgenTest, SendVerbControlPlane) {
  ServerUnderTest sut = MakeServer(45);
  auto health = SendVerb("127.0.0.1", sut.server->port(), "health");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->front(), '{');
  EXPECT_NE(health->find("\"plan_version\""), std::string::npos);

  auto prom = SendVerb("127.0.0.1", sut.server->port(), "metrics --prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("otfair_net_connections_accepted_total"), std::string::npos);
  EXPECT_NE(prom->find("# EOF\n"), std::string::npos);
}

TEST(LoadgenTest, ResultSerializationShapes) {
  LoadgenResult result;
  result.rows_sent = 10;
  result.rows_ok = 9;
  result.rows_err = 1;
  result.seconds = 0.5;
  result.rows_per_sec = 18.0;
  result.latency_samples = 10;
  result.p50_us = 100.0;
  result.p90_us = 200.0;
  result.p99_us = 300.0;
  result.max_us = 400.0;
  result.first_error = "err 0 3 UNAVAILABLE queue full";
  EXPECT_FALSE(result.clean());

  const std::string json = result.ToJson();
  for (const char* key : {"\"rows_sent\":10", "\"rows_ok\":9", "\"rows_err\":1",
                          "\"clean\":false", "\"p99_us\":", "\"first_error\":"})
    EXPECT_NE(json.find(key), std::string::npos) << json;

  // CSV row and header agree column-for-column.
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(LoadgenResult::CsvHeader()), commas(result.CsvRow()));
  EXPECT_EQ(result.CsvRow().rfind("10,9,1,", 0), 0u) << result.CsvRow();
}

}  // namespace
}  // namespace otfair::net
