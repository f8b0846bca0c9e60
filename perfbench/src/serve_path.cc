// The `serve_tcp` path: the benchmark's client -> TCP -> the real
// `otfair serve --listen` process -> response. One client thread drives
// twenty connections to a three-worker server, first closed-loop
// (capacity), then open-loop at a fixed rate (latency from each row's due
// time).
#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <thread>

#include "core/repairer.h"
#include "data/csv.h"
#include "net/loadgen.h"
#include "net/socket.h"
#include "serve/protocol.h"
#include "serve/repair_service.h"
#include "workloads.h"

namespace perfbench {

using otfair::common::Result;
using otfair::common::Status;
using otfair::core::OffSampleRepairer;
using otfair::core::RepairPlanSet;
using otfair::data::Dataset;

namespace {

constexpr int kSetupSpawns = 11;
// Three epoll workers plus this client keep the 4-vCPU host's vCPUs all
// busy, the state in which their speed is steady (a lone busy vCPU flips
// between fast and slow phases). The kernel's SO_REUSEPORT hash picks each
// connection's worker; with twenty connections every worker gets some
// (all on two workers: p < 1e-3), and in the closed loop each worker is
// saturated whatever its share.
constexpr int kNetThreads = 3;
constexpr uint64_t kConnections = 20;
constexpr uint64_t kWindow = 64;  // outstanding rows per connection, closed loop
// About a fifth of the tier's closed-loop capacity on the 4-vCPU host.
constexpr double kOpenRowsPerS = 60000.0;
constexpr double kClosedShare = 0.4;  // of a run's load time; the rest is open loop
constexpr int64_t kCapacityWindowNs = 100'000'000;
constexpr int64_t kStopTimeoutNs = 10'000'000'000;
constexpr uint64_t kProbeSession = 1'000'000;
static_assert(kShards * kShardRows % kConnections == 0);

/// The archive fixture as one row stream (the shards concatenated, N
/// rows). Connection c sends stream indices j = c, c + C, c + 2C, ...
/// (C connections); index j is archive row a = j mod N, sent as row a / C
/// of session C * (j / N) + c, so each session's rows form one dataset
/// that offline repair reproduces.
struct Stream {
  Dataset archive;
  std::vector<std::string> tail;  // " <u> <s> <x_1..x_d>\n" per archive row
  std::vector<Dataset> by_conn;   // archive rows a with a % C == c, in order
  size_t size() const { return archive.size(); }
};

uint64_t StreamIndex(uint64_t session, uint64_t row, size_t n) {
  return session / kConnections * n + row * kConnections + session % kConnections;
}

std::string RequestLine(const Stream& stream, uint64_t j) {
  const size_t n = stream.size();
  const size_t a = j % n;
  return "repair " + std::to_string(j / n * kConnections + j % kConnections) + " " +
         std::to_string(a / kConnections) + stream.tail[a];
}

Result<Stream> LoadStream(const RunContext& ctx) {
  const size_t n = kShards * kShardRows;
  otfair::common::Matrix features(n, kDim);
  std::vector<int> s(n);
  std::vector<int> u(n);
  std::vector<std::string> names;
  for (size_t shard = 0; shard < kShards; ++shard) {
    auto part = otfair::data::ReadCsv(ShardPath(ctx, shard));
    if (!part.ok()) return part.status();
    if (part->size() != kShardRows || part->dim() != kDim)
      return Status::InvalidArgument("unexpected archive shard shape");
    names = part->feature_names();
    for (size_t i = 0; i < kShardRows; ++i) {
      const size_t a = shard * kShardRows + i;
      s[a] = part->s(i);
      u[a] = part->u(i);
      for (size_t k = 0; k < kDim; ++k) features(a, k) = part->feature(i, k);
    }
  }
  auto archive = Dataset::Create(std::move(features), std::move(s), std::move(u), names);
  if (!archive.ok()) return archive.status();
  Stream stream;
  stream.archive = std::move(*archive);
  stream.tail.resize(n);
  char cell[40];
  for (size_t a = 0; a < n; ++a) {
    std::string& tail = stream.tail[a];
    std::snprintf(cell, sizeof(cell), " %d %d", stream.archive.u(a), stream.archive.s(a));
    tail = cell;
    for (size_t k = 0; k < kDim; ++k) {
      std::snprintf(cell, sizeof(cell), " %.17g", stream.archive.feature(a, k));
      tail += cell;
    }
    tail += '\n';
  }
  for (uint64_t c = 0; c < kConnections; ++c) {
    std::vector<size_t> rows;
    for (size_t a = c; a < n; a += kConnections) rows.push_back(a);
    stream.by_conn.push_back(stream.archive.Subset(rows));
  }
  return stream;
}

/// Offline repair of a whole dataset under one session's seed, at one
/// lane as the server runs.
Result<Dataset> OfflineRepair(const RepairPlanSet& plans, uint64_t seed, const Dataset& rows) {
  otfair::core::RepairOptions options;
  options.seed = seed;
  options.threads = 1;
  auto repairer = OffSampleRepairer::Create(plans, options);
  if (!repairer.ok()) return repairer.status();
  return repairer->RepairDataset(rows);
}

std::string ExpectedLine(uint64_t session, uint64_t row, const Dataset& repaired, size_t i) {
  otfair::serve::RowResponse response;
  response.session_id = session;
  response.row_index = row;
  response.repaired.resize(repaired.dim());
  for (size_t k = 0; k < repaired.dim(); ++k) response.repaired[k] = repaired.feature(i, k);
  return otfair::serve::FormatRowResponse(response);
}

/// Pins the calling thread to its first allowed CPU and every thread of
/// process `pid` to the remaining ones, until destroyed.
class CpuSplit {
 public:
  explicit CpuSplit(pid_t pid) {
    sched_getaffinity(0, sizeof(saved_), &saved_);
    if (CPU_COUNT(&saved_) < 2) return;
    cpu_set_t rest = saved_;
    int first = 0;
    while (!CPU_ISSET(first, &rest)) ++first;
    CPU_CLR(first, &rest);
    PinToCpu(0);
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    if (DIR* tasks = opendir(dir.c_str())) {
      while (dirent* entry = readdir(tasks))
        if (entry->d_name[0] != '.')
          sched_setaffinity(static_cast<pid_t>(std::atoi(entry->d_name)), sizeof(rest), &rest);
      closedir(tasks);
    }
  }
  ~CpuSplit() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

 private:
  cpu_set_t saved_;
};

struct ServerProcess {
  Child child;
  uint16_t port = 0;
};

/// Spawns `otfair serve --listen=0` and waits for its "listening on" line.
Status StartServer(const RunContext& ctx, ServerProcess* server) {
  server->child = Spawn({ctx.otfair_bin, "serve", "--plan=" + PlanPath(ctx), "--listen=0",
                         "--net-threads=" + std::to_string(kNetThreads), "--threads=1"},
                        false, true);
  if (server->child.pid < 0) return Status::Internal("cannot spawn " + ctx.otfair_bin);
  std::string text;
  const int64_t deadline = NowNs() + kStopTimeoutNs;
  char buf[1024];
  while (NowNs() < deadline) {
    pollfd pfd{server->child.err_fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = read(server->child.err_fd, buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
    const size_t at = text.find("listening on ");
    if (at == std::string::npos || text.find('\n', at) == std::string::npos) continue;
    const size_t colon = text.find(':', at);
    server->port = static_cast<uint16_t>(std::strtoul(text.c_str() + colon + 1, nullptr, 10));
    return Status::Ok();
  }
  return Status::Internal("server did not start listening: " + text);
}

/// SIGTERM, then waits for the drain; returns the exit code (0 expected).
int StopServer(ServerProcess* server) {
  if (server->child.pid <= 0) return -1;
  kill(server->child.pid, SIGTERM);
  const int64_t deadline = NowNs() + kStopTimeoutNs;
  char buf[1024];
  while (NowNs() < deadline) {
    pollfd pfd{server->child.err_fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = read(server->child.err_fd, buf, sizeof(buf));
    if (n <= 0) break;
  }
  if (NowNs() >= deadline) kill(server->child.pid, SIGKILL);
  return WaitChild(&server->child);
}

/// Blocking one-row exchange on a fresh connection; returns the line.
Result<std::string> ExchangeOneRow(uint16_t port, const std::string& request) {
  auto socket = otfair::net::ConnectTcp("127.0.0.1", port);
  if (!socket.ok()) return socket.status();
  size_t sent = 0;
  while (sent < request.size()) {
    size_t n = 0;
    bool would_block = false;
    OTFAIR_RETURN_IF_ERROR(otfair::net::WriteSome(socket->fd(), request.data() + sent,
                                                  request.size() - sent, &n, &would_block));
    sent += n;
  }
  std::string line;
  char buf[4096];
  while (line.find('\n') == std::string::npos) {
    size_t n = 0;
    bool would_block = false;
    OTFAIR_RETURN_IF_ERROR(otfair::net::ReadSome(socket->fd(), buf, sizeof(buf), &n, &would_block));
    if (n == 0) return Status::Internal("server closed the connection");
    line.append(buf, n);
  }
  return line.substr(0, line.find('\n'));
}

struct Conn {
  otfair::net::Socket socket;
  std::string out;
  size_t out_off = 0;
  std::string in;  // received bytes after the last complete line
  uint64_t next_i = 0;  // next position in this connection's sequence
  uint64_t outstanding = 0;
};

/// The benchmark's own client: one thread, non-blocking sockets polled
/// through epoll, exact per-row timestamps indexed by stream index. Every
/// response is kept as a 64-bit hash of its bytes; the first N in full.
class Client {
 public:
  explicit Client(const Stream& stream)
      : conns(kConnections), head_lines(stream.size()), stream_(stream) {}

  Status Connect(uint16_t port) {
    epoll_ = otfair::net::Socket(epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_.valid()) return Status::Internal("epoll_create1 failed");
    for (uint64_t c = 0; c < kConnections; ++c) {
      auto socket = otfair::net::ConnectTcp("127.0.0.1", port);
      if (!socket.ok()) return socket.status();
      OTFAIR_RETURN_IF_ERROR(otfair::net::SetNoDelay(socket->fd()));
      OTFAIR_RETURN_IF_ERROR(otfair::net::SetNonBlocking(socket->fd()));
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = c;
      if (epoll_ctl(epoll_.fd(), EPOLL_CTL_ADD, socket->fd(), &event) != 0)
        return Status::Internal("epoll_ctl failed");
      conns[c].socket = std::move(*socket);
    }
    return Status::Ok();
  }

  /// Queues connection c's next row, due at `due_ns`.
  void Queue(uint64_t c, int64_t due_ns) {
    Conn& conn = conns[c];
    const uint64_t j = conn.next_i++ * kConnections + c;
    if (j >= due.size()) {
      const size_t size = std::max<size_t>(j + 1, due.size() * 2);
      due.resize(size, -1);
      received_at.resize(size, -1);
      line_hash.resize(size, 0);
    }
    due[j] = due_ns;
    if (conn.out_off == conn.out.size()) pending_.push_back(c);
    conn.out += RequestLine(stream_, j);
    ++conn.outstanding;
  }

  /// Writes what is queued and reads what has arrived.
  void Pump() {
    for (size_t p = 0; p < pending_.size();) {
      Conn& conn = conns[pending_[p]];
      size_t n = 0;
      bool would_block = false;
      if (!otfair::net::WriteSome(conn.socket.fd(), conn.out.data() + conn.out_off,
                                  conn.out.size() - conn.out_off, &n, &would_block)
               .ok())
        broken = true;
      conn.out_off += n;
      if (conn.out_off < conn.out.size()) {
        ++p;
        continue;
      }
      conn.out.clear();
      conn.out_off = 0;
      pending_[p] = pending_.back();
      pending_.pop_back();
    }
    epoll_event events[kConnections];
    const int ready = epoll_wait(epoll_.fd(), events, static_cast<int>(kConnections), 0);
    for (int e = 0; e < ready; ++e) {
      Conn& conn = conns[events[e].data.u64];
      char buf[65536];
      size_t n = 0;
      bool would_block = false;
      if (!otfair::net::ReadSome(conn.socket.fd(), buf, sizeof(buf), &n, &would_block).ok() ||
          (n == 0 && !would_block)) {
        broken = true;
        continue;
      }
      const int64_t now = NowNs();
      const size_t scan_from = conn.in.size();
      conn.in.append(buf, n);
      size_t line_start = 0;
      for (size_t nl = conn.in.find('\n', scan_from); nl != std::string::npos;
           nl = conn.in.find('\n', nl + 1)) {
        OnLine(conn, std::string_view(conn.in).substr(line_start, nl - line_start), now);
        line_start = nl + 1;
      }
      conn.in.erase(0, line_start);
    }
  }

  uint64_t outstanding() const {
    uint64_t total = 0;
    for (const Conn& conn : conns) total += conn.outstanding;
    return total;
  }

  uint64_t sent() const {
    uint64_t total = 0;
    for (const Conn& conn : conns) total += conn.next_i;
    return total;
  }

  /// Pumps until every queued row is answered or the timeout passes.
  void Drain() {
    const int64_t deadline = NowNs() + kStopTimeoutNs;
    while (outstanding() > 0 && !broken && NowNs() < deadline) Pump();
  }

  std::vector<Conn> conns;
  std::vector<int64_t> due;            // per stream index
  std::vector<int64_t> received_at;    // per stream index, -1 until answered
  std::vector<uint64_t> line_hash;     // per stream index
  std::vector<std::string> head_lines;  // full response of stream index j < N
  uint64_t received = 0;
  uint64_t bad_lines = 0;  // error or duplicate responses
  bool broken = false;

 private:
  void OnLine(Conn& conn, std::string_view line, int64_t now) {
    if (conn.outstanding > 0) --conn.outstanding;
    if (line.rfind("ok ", 0) != 0) {
      ++bad_lines;
      return;
    }
    char* end = nullptr;
    const uint64_t session = std::strtoull(line.data() + 3, &end, 10);
    const uint64_t row = std::strtoull(end, nullptr, 10);
    const uint64_t j = StreamIndex(session, row, stream_.size());
    if (j >= received_at.size() || received_at[j] >= 0) {
      ++bad_lines;
      return;
    }
    received_at[j] = now;
    line_hash[j] = std::hash<std::string_view>()(line);
    if (j < head_lines.size()) head_lines[j] = line;
    ++received;
  }

  const Stream& stream_;
  otfair::net::Socket epoll_;  // owns the epoll descriptor
  std::vector<uint64_t> pending_;  // connections with unsent bytes
};

struct ClosedLoop {
  std::vector<double> window_rows_per_s;
  /// Rows answered per second after the first (ramp-up) window.
  double rows_per_s = 0.0;
  uint64_t rows = 0;
  int64_t server_cpu_ns = 0;
};

ClosedLoop RunClosedLoop(Client& client, double seconds, pid_t server_pid) {
  ClosedLoop result;
  const int64_t cpu0 = ChildCpuNs(server_pid);
  const uint64_t received0 = client.received;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t window_start = start;
  uint64_t window_received = client.received;
  int64_t steady_start = 0;
  uint64_t steady_received = 0;
  int64_t now = start;
  for (; now < end && !client.broken; now = NowNs()) {
    for (uint64_t c = 0; c < kConnections; ++c)
      while (client.conns[c].outstanding < kWindow) client.Queue(c, now);
    client.Pump();
    if (now - window_start >= kCapacityWindowNs) {
      // The first window includes the ramp-up and is not kept.
      if (window_start != start) {
        result.window_rows_per_s.push_back(static_cast<double>(client.received - window_received) /
                                           (static_cast<double>(now - window_start) / 1e9));
      } else {
        steady_start = now;
        steady_received = client.received;
      }
      window_start = now;
      window_received = client.received;
    }
  }
  result.server_cpu_ns = ChildCpuNs(server_pid) - cpu0;
  result.rows = client.received - received0;
  if (steady_start > 0)
    result.rows_per_s = static_cast<double>(client.received - steady_received) /
                        (static_cast<double>(now - steady_start) / 1e9);
  client.Drain();
  return result;
}

struct OpenLoop {
  std::vector<double> latency_us;
  double send_lag_max_us = 0.0;
};

OpenLoop RunOpenLoop(Client& client, double seconds) {
  OpenLoop result;
  std::vector<uint64_t> first_i(kConnections);
  for (uint64_t c = 0; c < kConnections; ++c) first_i[c] = client.conns[c].next_i;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const double period_ns = 1e9 / kOpenRowsPerS;
  uint64_t m = 0;
  for (int64_t now = start; now < end && !client.broken; now = NowNs()) {
    for (;; ++m) {
      const int64_t due = start + static_cast<int64_t>(static_cast<double>(m) * period_ns);
      if (due > now) break;
      client.Queue(m % kConnections, due);
      result.send_lag_max_us =
          std::max(result.send_lag_max_us, static_cast<double>(now - due) / 1e3);
    }
    client.Pump();
  }
  client.Drain();
  for (uint64_t c = 0; c < kConnections; ++c) {
    for (uint64_t i = first_i[c]; i < client.conns[c].next_i; ++i) {
      const uint64_t j = i * kConnections + c;
      if (client.received_at[j] >= 0)
        result.latency_us.push_back(static_cast<double>(client.received_at[j] - client.due[j]) /
                                    1e3);
    }
  }
  return result;
}

/// rows_accepted / batches of the server's `metrics` verb.
bool BatchCounters(uint16_t port, double* rows, double* batches) {
  auto json = otfair::net::SendVerb("127.0.0.1", port, "metrics", 10000);
  if (!json.ok()) return false;
  auto field = [&](const char* key) {
    const size_t at = json->find(std::string("\"") + key + "\":");
    return at == std::string::npos ? std::nan("")
                                   : std::strtod(json->c_str() + at + std::strlen(key) + 3, nullptr);
  };
  *rows = field("rows_accepted");
  *batches = field("batches");
  return std::isfinite(*rows) && std::isfinite(*batches);
}

/// Everything one server lifetime measures.
struct TcpRun {
  ClosedLoop closed;
  OpenLoop open;
  double closed_rows_per_batch = 0.0;
  double open_rows_per_batch = 0.0;
  double peak_rss_mb = 0.0;
};

/// Checks every response against offline RepairDataset of its session
/// under RepairService::SessionSeed (by its 64-bit hash; the first N
/// responses byte for byte) and that every sent row was answered exactly
/// once. Fills `repaired_head`, when given, with the responses for the
/// e_ratio rows.
void VerifyResponses(const Stream& stream, const RepairPlanSet& plans,
                     const otfair::serve::RepairService& service, const Client& client,
                     Report& report, Dataset* repaired_head) {
  const size_t n = stream.size();
  const uint64_t rows_per_session = n / kConnections;
  // Sessions are s = C * epoch + c; each covers rows_per_session rows.
  uint64_t sessions = 0;
  for (uint64_t c = 0; c < kConnections; ++c) {
    const uint64_t sent_c = client.conns[c].next_i;
    if (sent_c > 0)
      sessions = std::max(sessions, ((sent_c - 1) / rows_per_session) * kConnections + c + 1);
  }
  std::atomic<uint64_t> next_session{0};
  std::atomic<uint64_t> wrong{client.bad_lines};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (uint64_t session = next_session++; session < sessions; session = next_session++) {
        const uint64_t c = session % kConnections;
        const uint64_t first_i = session / kConnections * rows_per_session;
        const uint64_t last_i = std::min(first_i + rows_per_session, client.conns[c].next_i);
        if (first_i >= last_i) continue;
        auto repaired = OfflineRepair(plans, service.SessionSeed(session), stream.by_conn[c]);
        uint64_t bad = 0;
        for (uint64_t i = first_i; i < last_i; ++i) {
          const uint64_t j = i * kConnections + c;
          const uint64_t row = i - first_i;
          if (!repaired.ok() || client.received_at[j] < 0) {
            ++bad;
            continue;
          }
          const std::string expected = ExpectedLine(session, row, *repaired, row);
          if (std::hash<std::string_view>()(expected) != client.line_hash[j] ||
              (j < n && expected != client.head_lines[j]))
            ++bad;
        }
        wrong += bad;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  report.Attempt(client.sent());
  report.FailOps(wrong);
  if (wrong > 0)
    report.Fail(std::to_string(wrong.load()) +
                " TCP responses were wrong, duplicated or missing (offline repair differs)");
  if (repaired_head == nullptr) return;
  *repaired_head = HeadRows(stream.archive, kEratioRows);
  for (size_t a = 0; a < repaired_head->size(); ++a) {
    const std::string& line = client.head_lines[a];
    if (line.empty()) return report.Fail("response missing for e_ratio row " + std::to_string(a));
    // "ok <session> <row> x_1 .. x_d"; the line was checked above.
    char* cursor = nullptr;
    std::strtoull(line.c_str() + 3, &cursor, 10);
    std::strtoull(cursor, &cursor, 10);
    for (size_t k = 0; k < repaired_head->dim(); ++k)
      repaired_head->set_feature(a, k, std::strtod(cursor, &cursor));
  }
}

/// One server lifetime: closed loop, open loop, peak memory.
Status DriveServer(ServerProcess* server, Client& client, double closed_s, double open_s,
                   TcpRun* run) {
  OTFAIR_RETURN_IF_ERROR(client.Connect(server->port));
  // The client owns the first CPU and the server's threads share the
  // rest: otherwise the kernel at times wakes a worker onto the client's
  // busy-polling CPU, and whole runs read ~1.5x slower.
  const CpuSplit split(server->child.pid);
  double rows0 = 0;
  double batches0 = 0;
  double rows1 = 0;
  double batches1 = 0;
  double rows2 = 0;
  double batches2 = 0;
  if (!BatchCounters(server->port, &rows0, &batches0))
    return Status::Internal("metrics verb failed");
  run->closed = RunClosedLoop(client, closed_s, server->child.pid);
  if (!BatchCounters(server->port, &rows1, &batches1))
    return Status::Internal("metrics verb failed");
  run->open = RunOpenLoop(client, open_s);
  if (!BatchCounters(server->port, &rows2, &batches2))
    return Status::Internal("metrics verb failed");
  run->closed_rows_per_batch = (rows1 - rows0) / std::max(1.0, batches1 - batches0);
  run->open_rows_per_batch = (rows2 - rows1) / std::max(1.0, batches2 - batches1);
  run->peak_rss_mb = PeakRssMb(server->child.pid);
  if (client.broken) return Status::Internal("a connection broke during the load");
  return Status::Ok();
}

struct Fixture {
  Stream stream;
  RepairPlanSet plans;
  std::unique_ptr<otfair::serve::RepairService> service;
};

/// Loads the archive stream and a service configured as the server is,
/// used for session seeds and the replay.
bool LoadFixture(const RunContext& ctx, Fixture* fixture, Report& report) {
  auto stream = LoadStream(ctx);
  auto plans = RepairPlanSet::LoadFromFile(PlanPath(ctx));
  if (!stream.ok() || !plans.ok()) {
    report.Fail("cannot load the serve fixtures");
    return false;
  }
  otfair::serve::ServiceOptions options;
  options.threads = 1;
  auto service = otfair::serve::RepairService::Create(*plans, options);
  if (!service.ok()) {
    report.Fail("cannot create the reference service: " + service.status().ToString());
    return false;
  }
  fixture->stream = std::move(*stream);
  fixture->plans = std::move(*plans);
  fixture->service = std::move(*service);
  return true;
}

}  // namespace

void RunServe(const RunContext& ctx, Report& report) {
  Fixture fx;
  if (!LoadFixture(ctx, &fx, report)) return;
  auto probe_rows = OfflineRepair(fx.plans, fx.service->SessionSeed(kProbeSession),
                                  HeadRows(fx.stream.archive, 1));
  if (!probe_rows.ok()) return report.Fail("offline repair of the probe row failed");
  const std::string probe_request =
      "repair " + std::to_string(kProbeSession) + " 0" + fx.stream.tail[0];
  const std::string probe_expected = ExpectedLine(kProbeSession, 0, *probe_rows, 0);

  // Set-up: spawn -> listening -> first response, on fresh processes;
  // the last server stays up for the load.
  std::vector<double> setup_s;
  ServerProcess server;
  for (int spawn = 0; spawn < kSetupSpawns; ++spawn) {
    report.Probe();
    const int64_t start = NowNs();
    Status status = StartServer(ctx, &server);
    Result<std::string> line = status.ok() ? ExchangeOneRow(server.port, probe_request)
                                           : Result<std::string>(status);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    report.Attempt(1);
    if (!line.ok() || *line != probe_expected) {
      report.FailOps(1);
      report.Fail("first response of a fresh server is wrong: " +
                  (line.ok() ? *line : line.status().ToString()));
      StopServer(&server);
      return;
    }
    if (spawn + 1 < kSetupSpawns && StopServer(&server) != 0)
      report.Fail("server did not drain cleanly on SIGTERM");
  }

  Client client(fx.stream);
  TcpRun run;
  const Status status = DriveServer(&server, client, ctx.seconds * kClosedShare,
                                    ctx.seconds * (1 - kClosedShare), &run);
  if (!status.ok()) report.Fail(status.ToString());
  if (StopServer(&server) != 0) report.Fail("server did not drain cleanly on SIGTERM");
  report.Probe();

  Dataset repaired_head;
  VerifyResponses(fx.stream, fx.plans, *fx.service, client, report, &repaired_head);
  const double e_ratio = ERatio(fx.stream.archive, repaired_head);

  const double capacity = run.closed.rows_per_s;
  const double p50_us = Median(run.open.latency_us);
  report.Note("serve_rows_per_s: " + std::to_string(capacity) + " rows/s (closed loop, " +
              std::to_string(kWindow) + " outstanding per connection)");
  report.Note(TailSummary("closed-loop 100-ms windows", run.closed.window_rows_per_s,
                          "rows/s"));
  report.Note(TailSummary("serve latency from due time at " +
                              std::to_string(static_cast<int>(kOpenRowsPerS)) + " rows/s",
                          run.open.latency_us, "us"));
  report.Note("open-loop send lag max: " + std::to_string(run.open.send_lag_max_us) +
              " us; rows per batch " + std::to_string(run.open_rows_per_batch));
  NoteERatio(report, e_ratio);
  report.Metric("latency_ms", p50_us / 1e3, "ms");
  report.Metric("rows_per_s", capacity, "rows/s");
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", run.peak_rss_mb, "MB");
}

void TraceServe(const RunContext& ctx, double seconds, bool own, Report& report,
                std::vector<Tracer>& tracers) {
  Fixture fx;
  if (!LoadFixture(ctx, &fx, report)) return;
  ServerProcess server;
  if (Status status = StartServer(ctx, &server); !status.ok()) return report.Fail(status.ToString());
  Client client(fx.stream);
  TcpRun run;
  const Status status = DriveServer(&server, client, seconds / 3, seconds / 3, &run);
  if (!status.ok()) report.Fail(status.ToString());
  if (StopServer(&server) != 0) report.Fail("server did not drain cleanly on SIGTERM");
  report.Probe();
  VerifyResponses(fx.stream, fx.plans, *fx.service, client, report, nullptr);

  // Replay of the run's first N request lines through the codec and
  // repair calls, at the server's closed-loop batch size; untraced and
  // traced batches alternate. Only stream indices the load sent (all N,
  // unless the server was far slower than expected) are replayed.
  uint64_t min_sent = client.conns[0].next_i;
  for (const Conn& conn : client.conns) min_sent = std::min(min_sent, conn.next_i);
  const size_t n = std::min<size_t>(fx.stream.size(), kConnections * min_sent);
  const size_t batch =
      std::clamp<size_t>(static_cast<size_t>(std::lround(run.closed_rows_per_batch)), 1, 256);
  Tracer tracer(2);
  std::vector<double> plain_ns_per_row;
  std::vector<double> traced_ns_per_row;
  std::map<std::string, double> layer_ns;
  double layer_rows = 0.0;
  double repair_ns = 0.0;
  double repair_rows = 0.0;
  std::vector<std::string> lines(batch);
  std::vector<otfair::serve::RowRequest> requests(batch);
  std::vector<otfair::serve::RowResponse> responses;
  std::vector<std::string> formatted(batch);
  uint64_t wrong = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds / 3 * 1e9);
  for (int pass = 0; pass == 0 || NowNs() < deadline; ++pass) {
    report.Probe();
    for (size_t first = 0, chunk = 0; first + batch <= n; first += batch, ++chunk) {
      for (size_t r = 0; r < batch; ++r) lines[r] = RequestLine(fx.stream, first + r);
      for (std::string& line : lines) line.pop_back();  // the newline framing
      tracer.enabled = chunk % 2 == 1;
      const size_t from = tracer.spans().size();
      const int64_t start = NowNs();
      {
        Span span(tracer, "serve.parse");
        for (size_t r = 0; r < batch; ++r) {
          auto parsed = otfair::serve::ParseRequestLine(lines[r], kDim);
          if (parsed.ok()) requests[r] = std::move(parsed->row);
        }
      }
      {
        Span span(tracer, "serve.repair_batch");
        fx.service->RepairBatch(requests.data(), batch, &responses);
      }
      {
        Span span(tracer, "serve.format");
        for (size_t r = 0; r < batch; ++r)
          formatted[r] = otfair::serve::FormatRowResponse(responses[r]);
      }
      const double ns_per_row = static_cast<double>(NowNs() - start) / static_cast<double>(batch);
      (tracer.enabled ? traced_ns_per_row : plain_ns_per_row).push_back(ns_per_row);
      if (tracer.enabled) {
        for (const auto& [name, ms] : SelfMsByName(tracer.spans(), from))
          layer_ns[name] += ms * 1e6;
        layer_rows += static_cast<double>(batch);
      }
      for (size_t r = 0; r < batch; ++r)
        if (formatted[r] != client.head_lines[first + r]) ++wrong;
    }
    tracer.enabled = true;
    for (uint64_t c = 0; c < kConnections; ++c) {
      const int32_t index = tracer.Begin("core.repair");
      const bool ok = OfflineRepair(fx.plans, fx.service->SessionSeed(c), fx.stream.by_conn[c]).ok();
      tracer.End(index);
      const SpanRecord& span = tracer.spans()[static_cast<size_t>(index)];
      repair_ns += static_cast<double>(span.end_ns - span.start_ns);
      repair_rows += static_cast<double>(fx.stream.by_conn[c].size());
      if (!ok) ++wrong;
    }
    tracer.enabled = false;
  }
  report.Attempt(static_cast<uint64_t>(layer_rows));
  report.FailOps(wrong);
  if (wrong > 0) report.Fail("replayed responses differ from the TCP responses");

  const double parse = layer_ns["serve.parse"] / layer_rows;
  const double batch_ns = layer_ns["serve.repair_batch"] / layer_rows;
  const double format = layer_ns["serve.format"] / layer_rows;
  const double repair = repair_ns / repair_rows;
  const double server_cpu =
      static_cast<double>(run.closed.server_cpu_ns) / static_cast<double>(run.closed.rows);
  report.Metric("serve.parse_ns_per_row", parse, "ns");
  report.Metric("serve.format_ns_per_row", format, "ns");
  report.Metric("core.repair_ns_per_row", repair, "ns");
  report.Metric("serve.observe_ns_per_row", batch_ns - repair, "ns");
  report.Metric("serve.server_cpu_ns_per_row", server_cpu, "ns");
  report.Metric("net.residual_ns_per_row", server_cpu - parse - batch_ns - format, "ns");
  report.Metric("serve.capacity_rows_per_s", run.closed.rows_per_s, "rows/s");
  report.Metric("serve.p50_us", Median(run.open.latency_us), "us");
  report.Metric("serve.rows_per_batch", run.open_rows_per_batch, "rows");
  report.Metric("serve.p99_us", Quantile(run.open.latency_us, 0.99), "us");
  report.Metric("client.send_lag_max_us", run.open.send_lag_max_us, "us");
  char line[256];
  std::snprintf(line, sizeof(line),
                "serve coverage: parse %.0f + repair %.0f + observe %.0f + format %.0f = %.0f of "
                "%.0f server CPU ns/row; remainder (net: epoll, syscalls, buffers) %.0f ns/row",
                parse, repair, batch_ns - repair, format, parse + batch_ns + format, server_cpu,
                server_cpu - parse - batch_ns - format);
  report.Note(line);
  report.Note("serve replay batch size " + std::to_string(batch) + " (closed-loop rows/batch " +
              std::to_string(run.closed_rows_per_batch) + ")");
  const double overhead = 100.0 * (Median(traced_ns_per_row) / Median(plain_ns_per_row) - 1.0);
  report.Note("serve trace overhead: " + std::to_string(overhead) + " %");
  if (own) report.Metric("trace.overhead_pct", overhead, "%");
  tracers.push_back(std::move(tracer));
}

}  // namespace perfbench
