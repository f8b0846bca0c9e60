// Networked serving contract tests. The load-bearing ones:
//
//  - Line framing survives arbitrary packetization: a table of split
//    strategies (byte-at-a-time, adversarial mid-token cuts, CRLF,
//    many-lines-per-write) all yield the same response byte stream.
//  - Per-session TCP output is byte-identical to OffSampleRepairer batch
//    repair — with concurrent clients, at multiple worker counts, under
//    a reload storm (the network must not touch the determinism
//    contract).
//  - Oversized or garbage input closes the connection after a sanitized
//    error line; malformed arguments to a known verb do not.
//  - Shutdown() drains: every row the server read is answered before the
//    connection closes.

#include "net/server.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "core/repairer.h"
#include "net/socket.h"
#include "serve/protocol.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"

namespace otfair::net {
namespace {

struct Fixture {
  data::Dataset research;
  data::Dataset archive;
  core::RepairPlanSet plans;
};

Fixture MakeFixture(uint64_t seed, size_t archive_rows = 400) {
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

/// The offline ground truth for one session: OffSampleRepairer batch
/// repair of the whole archive under the session's seed.
data::Dataset OfflineRepair(const Fixture& fx, const serve::RepairService& service,
                            uint64_t session) {
  core::RepairOptions options;
  options.seed = service.SessionSeed(session);
  options.threads = 1;
  auto repairer = core::OffSampleRepairer::Create(fx.plans, options);
  EXPECT_TRUE(repairer.ok());
  auto repaired = repairer->RepairDataset(fx.archive);
  EXPECT_TRUE(repaired.ok());
  return std::move(*repaired);
}

/// One archive row as a protocol request line (%.17g features round-trip
/// bit-exact through the parser).
std::string RepairLine(const data::Dataset& archive, uint64_t session, size_t row) {
  std::string line = "repair " + std::to_string(session) + ' ' + std::to_string(row) +
                     ' ' + std::to_string(archive.u(row)) + ' ' +
                     std::to_string(archive.s(row));
  char buf[40];
  for (const double v : archive.Row(row)) {
    std::snprintf(buf, sizeof(buf), " %.17g", v);
    line += buf;
  }
  return line;
}

/// The exact response line stdio serve (and therefore TCP serve) must emit
/// for one offline-repaired row.
std::string ExpectedLine(const data::Dataset& offline, uint64_t session, size_t row) {
  serve::RowResponse response;
  response.session_id = session;
  response.row_index = row;
  response.repaired = offline.Row(row);
  return serve::FormatRowResponse(response);
}

struct NetFixture {
  Fixture fx;
  std::unique_ptr<serve::RepairService> service;
  std::unique_ptr<Server> server;
};

NetFixture MakeServer(uint64_t seed, ServerOptions options = {}, ServerHooks hooks = {},
                      size_t archive_rows = 400) {
  NetFixture nf;
  nf.fx = MakeFixture(seed, archive_rows);
  auto service = serve::RepairService::Create(nf.fx.plans, {});
  EXPECT_TRUE(service.ok());
  nf.service = std::move(*service);
  auto server = Server::Create(nf.service.get(), options, std::move(hooks));
  EXPECT_TRUE(server.ok());
  nf.server = std::move(*server);
  return nf;
}

/// Minimal blocking test client with a receive timeout (a server bug must
/// fail the test, not hang the suite).
class Client {
 public:
  explicit Client(uint16_t port) {
    auto sock = ConnectTcp("127.0.0.1", port);
    EXPECT_TRUE(sock.ok()) << sock.status().message();
    if (!sock.ok()) return;
    sock_ = std::move(*sock);
    timeval tv{30, 0};
    ::setsockopt(sock_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    SetNoDelay(sock_.fd());
  }

  bool connected() const { return sock_.valid(); }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(sock_.fd(), data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Sends `data` carved into the given chunk lengths (cycled), pausing
  /// between chunks so each arrives as its own read on the server side.
  bool SendSplit(const std::string& data, const std::vector<size_t>& chunks) {
    size_t off = 0;
    size_t i = 0;
    while (off < data.size()) {
      const size_t len = std::min(chunks[i % chunks.size()], data.size() - off);
      if (!SendAll(data.substr(off, len))) return false;
      off += len;
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    return true;
  }

  /// Half-close: tells the server this client is done sending, so it
  /// flushes everything owed and FINs back (ReadLine then drains to EOF).
  void FinishSending() { ::shutdown(sock_.fd(), SHUT_WR); }

  /// False on EOF or timeout; strips the '\n' (and any '\r').
  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        while (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(sock_.fd(), chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the server has closed (no buffered bytes, recv sees EOF).
  bool AtEof() {
    if (!buf_.empty()) return false;
    char c;
    while (true) {
      const ssize_t n = ::recv(sock_.fd(), &c, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      return n == 0;
    }
  }

 private:
  Socket sock_;
  std::string buf_;
};

// ---------------------------------------------------------------------------
// Framing: every packetization of the same bytes yields the same responses.

TEST(NetServerTest, FramingSurvivesArbitrarySplits) {
  NetFixture nf = MakeServer(21);
  const data::Dataset offline0 = OfflineRepair(nf.fx, *nf.service, 0);
  const data::Dataset offline1 = OfflineRepair(nf.fx, *nf.service, 1);

  // Two sessions interleaved; CRLF endings, a blank line, and an
  // interior empty CR line must all be tolerated.
  std::string payload;
  payload += RepairLine(nf.fx.archive, 0, 0) + "\n";
  payload += RepairLine(nf.fx.archive, 1, 0) + "\r\n";
  payload += "\n";
  payload += RepairLine(nf.fx.archive, 0, 1) + "\n";
  payload += "\r\n";
  payload += RepairLine(nf.fx.archive, 1, 1) + "\r\n";
  const std::vector<std::string> expected = {
      ExpectedLine(offline0, 0, 0),
      ExpectedLine(offline1, 1, 0),
      ExpectedLine(offline0, 0, 1),
      ExpectedLine(offline1, 1, 1),
  };

  struct SplitCase {
    const char* name;
    std::vector<size_t> chunks;  // cycled over the payload
  };
  const std::vector<SplitCase> cases = {
      {"whole payload in one write", {payload.size()}},
      {"byte at a time", {1}},
      {"two bytes", {2}},
      {"adversarial mid-token prime", {7}},
      {"adversarial mid-number prime", {13}},
      {"line and a half", {RepairLine(nf.fx.archive, 0, 0).size() + 30}},
      {"alternating tiny and large", {3, 64, 1, 128}},
  };

  for (const SplitCase& split : cases) {
    SCOPED_TRACE(split.name);
    Client client(nf.server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendSplit(payload, split.chunks));
    client.FinishSending();
    std::string line;
    for (const std::string& want : expected) {
      ASSERT_TRUE(client.ReadLine(&line)) << "connection closed early";
      EXPECT_EQ(line, want);
    }
    EXPECT_TRUE(client.AtEof());
  }
}

// ---------------------------------------------------------------------------
// Robustness: oversize and garbage close, malformed known verbs do not.

TEST(NetServerTest, OversizedLineClosesWithSanitizedError) {
  NetFixture nf = MakeServer(22);
  struct OversizeCase {
    const char* name;
    bool with_newline;
  };
  for (const OversizeCase& c :
       {OversizeCase{"newline-terminated", true}, OversizeCase{"no newline yet", false}}) {
    SCOPED_TRACE(c.name);
    Client client(nf.server->port());
    ASSERT_TRUE(client.connected());
    // The cap must hold across split reads: the line arrives in many
    // chunks, and a newline-less prefix alone must trip it.
    std::string big(serve::kMaxRequestLineBytes + 64, 'x');
    if (c.with_newline) big += '\n';
    ASSERT_TRUE(client.SendAll(big));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.rfind("err - - INVALID_ARGUMENT", 0), 0u) << line;
    EXPECT_NE(line.find("exceeds"), std::string::npos) << line;
    EXPECT_TRUE(client.AtEof());
  }
}

TEST(NetServerTest, GarbageInputTable) {
  NetFixture nf = MakeServer(23);
  struct GarbageCase {
    const char* name;
    std::string input;
    bool closes;  // unknown verb / junk closes; known verb with bad args stays open
    const char* prefix;  // a repair line whose session and row parse keeps them
  };
  const std::vector<GarbageCase> cases = {
      {"unknown verb", "frobnicate 1 2\n", true, "err - - "},
      {"binary junk", std::string("\x01\x02\xfe\xff stuff\n"), true, "err - - "},
      {"http request", "GET / HTTP/1.1\n", true, "err - - "},
      {"repair with non-numeric row", "repair 0 zero 0 0 1.0 2.0\n", false, "err - - "},
      {"repair with missing features", "repair 0 0 0 0 1.0\n", false, "err - - "},
      {"repair with out-of-range label", "repair 1 1 5 0 0.1 0.2\n", false,
       "err 1 1 INVALID_ARGUMENT "},
      {"repair with non-finite feature", "repair 1 5 0 0 nan 0.2\n", false,
       "err 1 5 INVALID_ARGUMENT "},
      {"reload without a path", "reload\n", false, "err - - "},
  };
  for (const GarbageCase& c : cases) {
    SCOPED_TRACE(c.name);
    Client client(nf.server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendAll(c.input));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.rfind(c.prefix, 0), 0u) << line;
    // Sanitized: whatever came in, the error line is printable ASCII.
    for (const char ch : line)
      EXPECT_TRUE(ch >= 0x20 && ch < 0x7f) << c.name << ": raw byte in error line";
    if (c.closes) {
      EXPECT_TRUE(client.AtEof());
    } else {
      // The connection survives a malformed known verb: a well-formed
      // request right after must be answered.
      ASSERT_TRUE(client.SendAll("health\n"));
      ASSERT_TRUE(client.ReadLine(&line));
      EXPECT_EQ(line.front(), '{') << line;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: concurrent TCP clients == offline batch repair, bit for bit.

void RunTcpReplay(int net_threads, bool reload_storm) {
  ServerOptions options;
  options.net_threads = net_threads;
  NetFixture nf = MakeServer(25, options);
  constexpr uint64_t kClients = 4;
  constexpr uint64_t kSessionsPerClient = 2;
  constexpr uint64_t kSessions = kClients * kSessionsPerClient;
  const size_t rows = nf.fx.archive.size();

  std::atomic<bool> done{false};
  std::thread reloader;
  if (reload_storm) {
    reloader = std::thread([&] {
      // Same plan, new snapshot: output must not change, nothing may drop.
      while (!done.load()) {
        EXPECT_TRUE(nf.service->ReloadPlan(nf.fx.plans).ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::vector<std::string> got(kSessions * rows);
  std::atomic<uint64_t> malformed{0};
  std::atomic<uint64_t> short_streams{0};
  std::vector<std::thread> clients;
  for (uint64_t ci = 0; ci < kClients; ++ci) {
    clients.emplace_back([&, ci] {
      Client client(nf.server->port());
      if (!client.connected()) {
        short_streams.fetch_add(1);
        return;
      }
      // Each client owns kSessionsPerClient sessions and replays the
      // archive in its own shuffled order: determinism must not depend on
      // arrival order, interleaving, or which worker accepted us.
      common::Rng order_rng(700 + ci);
      const std::vector<size_t> order = order_rng.Permutation(rows);
      std::string payload;
      for (const size_t row : order)
        for (uint64_t j = 0; j < kSessionsPerClient; ++j)
          payload += RepairLine(nf.fx.archive, ci + j * kClients, row) + "\n";
      if (!client.SendAll(payload)) {
        short_streams.fetch_add(1);
        return;
      }
      client.FinishSending();
      uint64_t received = 0;
      std::string line;
      while (client.ReadLine(&line)) {
        unsigned long long session = 0;
        unsigned long long row = 0;
        if (std::sscanf(line.c_str(), "ok %llu %llu", &session, &row) != 2 ||
            session >= kSessions || row >= rows) {
          malformed.fetch_add(1);
          continue;
        }
        got[session * rows + row] = line;
        ++received;
      }
      if (received != kSessionsPerClient * rows) short_streams.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true);
  if (reloader.joinable()) reloader.join();

  ASSERT_EQ(malformed.load(), 0u);
  ASSERT_EQ(short_streams.load(), 0u);
  for (uint64_t session = 0; session < kSessions; ++session) {
    const data::Dataset offline = OfflineRepair(nf.fx, *nf.service, session);
    for (size_t row = 0; row < rows; ++row) {
      ASSERT_EQ(got[session * rows + row], ExpectedLine(offline, session, row))
          << "session " << session << " row " << row;
    }
  }
  if (reload_storm) {
    EXPECT_GT(nf.service->plan_version(), 1u);
  }
}

TEST(NetServerTest, ConcurrentClientsMatchOfflineSingleWorker) {
  RunTcpReplay(/*net_threads=*/1, /*reload_storm=*/false);
}

TEST(NetServerTest, ConcurrentClientsMatchOfflineThreeWorkersUnderReloadStorm) {
  RunTcpReplay(/*net_threads=*/3, /*reload_storm=*/true);
}

// ---------------------------------------------------------------------------
// Control verbs over TCP.

TEST(NetServerTest, ControlVerbs) {
  NetFixture nf = MakeServer(26);
  Client client(nf.server->port());
  ASSERT_TRUE(client.connected());
  std::string line;

  ASSERT_TRUE(client.SendAll("health\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("\"plan_version\":1"), std::string::npos) << line;

  ASSERT_TRUE(client.SendAll("metrics\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_NE(line.find("\"rows_repaired\""), std::string::npos) << line;

  // The one multi-line response: Prometheus exposition, "# EOF"-terminated,
  // carrying the net-layer counters registered on the service registry.
  ASSERT_TRUE(client.SendAll("metrics --prom\n"));
  std::string prom;
  while (true) {
    ASSERT_TRUE(client.ReadLine(&line));
    if (line == "# EOF") break;
    prom += line + "\n";
  }
  EXPECT_NE(prom.find("otfair_net_connections_accepted_total"), std::string::npos);
  EXPECT_NE(prom.find("otfair_net_active_connections"), std::string::npos);

  const std::string plan_path = testing::TempDir() + "/net_server_test_plan.bin";
  ASSERT_TRUE(nf.fx.plans.SaveToFile(plan_path).ok());
  ASSERT_TRUE(client.SendAll("reload " + plan_path + "\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "ok reload 2");

  // No checkpoint hook configured: the same FAILED_PRECONDITION stdio
  // serve gives.
  ASSERT_TRUE(client.SendAll("checkpoint\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line.rfind("err - - FAILED_PRECONDITION", 0), 0u) << line;

  ASSERT_TRUE(client.SendAll("quit\n"));
  EXPECT_TRUE(client.AtEof());
}

TEST(NetServerTest, CheckpointHookFlushesAndAcksGeneration) {
  std::atomic<int> checkpoints{0};
  ServerHooks hooks;
  hooks.checkpoint = [&]() -> common::Result<uint64_t> {
    checkpoints.fetch_add(1);
    return static_cast<uint64_t>(42);
  };
  NetFixture nf = MakeServer(27, {}, std::move(hooks));
  Client client(nf.server->port());
  ASSERT_TRUE(client.connected());
  // Rows submitted before the verb must be covered (the worker flushes its
  // micro-batch before acking), so their responses arrive before the ack.
  std::string payload;
  for (size_t row = 0; row < 5; ++row)
    payload += RepairLine(nf.fx.archive, 0, row) + "\n";
  payload += "checkpoint\n";
  ASSERT_TRUE(client.SendAll(payload));
  std::string line;
  for (size_t row = 0; row < 5; ++row) {
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.rfind("ok 0 " + std::to_string(row), 0), 0u) << line;
  }
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "ok checkpoint 42");
  EXPECT_EQ(checkpoints.load(), 1);
}

TEST(NetServerTest, QuitDrainsThisConnectionOnly) {
  NetFixture nf = MakeServer(28);
  Client quitter(nf.server->port());
  ASSERT_TRUE(quitter.connected());
  // Everything before `quit` is answered; everything after it is not (the
  // connection is done), and the process keeps serving other clients.
  ASSERT_TRUE(
      quitter.SendAll(RepairLine(nf.fx.archive, 0, 0) + "\nquit\nhealth\n"));
  std::string line;
  ASSERT_TRUE(quitter.ReadLine(&line));
  EXPECT_EQ(line.rfind("ok 0 0 ", 0), 0u) << line;
  EXPECT_TRUE(quitter.AtEof());

  Client survivor(nf.server->port());
  ASSERT_TRUE(survivor.connected());
  ASSERT_TRUE(survivor.SendAll("health\n"));
  ASSERT_TRUE(survivor.ReadLine(&line));
  EXPECT_EQ(line.front(), '{');
}

// ---------------------------------------------------------------------------
// Limits and drain.

TEST(NetServerTest, ConnectionLimitRejectsWithUnavailable) {
  ServerOptions options;
  options.max_connections = 2;
  NetFixture nf = MakeServer(29, options);
  Client first(nf.server->port());
  Client second(nf.server->port());
  ASSERT_TRUE(first.connected() && second.connected());
  std::string line;
  // Round-trip both so they are registered before the third connects.
  ASSERT_TRUE(first.SendAll("health\n") && first.ReadLine(&line));
  ASSERT_TRUE(second.SendAll("health\n") && second.ReadLine(&line));

  Client third(nf.server->port());
  ASSERT_TRUE(third.connected());
  ASSERT_TRUE(third.ReadLine(&line));
  EXPECT_EQ(line.rfind("err - - UNAVAILABLE", 0), 0u) << line;
  EXPECT_TRUE(third.AtEof());

  // Existing connections are unaffected by the rejected accept.
  ASSERT_TRUE(first.SendAll("health\n") && first.ReadLine(&line));
  EXPECT_EQ(line.front(), '{');
}

TEST(NetServerTest, ShutdownDrainsPendingResponses) {
  ServerOptions options;
  options.net_threads = 2;
  NetFixture nf = MakeServer(30, options);
  constexpr size_t kRows = 200;
  const data::Dataset offline = OfflineRepair(nf.fx, *nf.service, 0);
  std::string payload;
  for (size_t row = 0; row < kRows; ++row)
    payload += RepairLine(nf.fx.archive, 0, row) + "\n";
  Client client(nf.server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendAll(payload));
  // Give the worker time to consume the burst, then drain: every row the
  // server read must be answered before the FIN.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  nf.server->Shutdown();
  std::string line;
  size_t received = 0;
  while (client.ReadLine(&line)) {
    unsigned long long session = 0;
    unsigned long long row = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "ok %llu %llu", &session, &row), 2) << line;
    ASSERT_LT(row, kRows);
    EXPECT_EQ(line, ExpectedLine(offline, 0, row));
    ++received;
  }
  EXPECT_EQ(received, kRows);
  EXPECT_TRUE(client.AtEof());
  nf.server->Shutdown();  // idempotent
}

TEST(NetServerTest, EphemeralPortIsResolvedAndServesOnAllWorkers) {
  ServerOptions options;
  options.net_threads = 3;
  NetFixture nf = MakeServer(31, options);
  ASSERT_GT(nf.server->port(), 0);
  // Many short-lived connections: wherever the kernel lands each accept,
  // the same port answers.
  for (int i = 0; i < 12; ++i) {
    Client client(nf.server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendAll("health\n"));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line.front(), '{');
  }
}

}  // namespace
}  // namespace otfair::net
