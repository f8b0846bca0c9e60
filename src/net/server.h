#ifndef OTFAIR_NET_SERVER_H_
#define OTFAIR_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/socket.h"
#include "serve/protocol.h"
#include "serve/repair_service.h"

namespace otfair::net {

struct ServerOptions {
  /// IPv4 listen address. The default is loopback; bind 0.0.0.0 to serve
  /// off-host.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; `Server::port()` reports the actual one.
  uint16_t port = 0;
  /// Worker threads. Each worker owns one epoll instance, one
  /// SO_REUSEPORT listener on the shared port (the kernel spreads
  /// accepts), and one micro-batcher — a connection's whole life happens
  /// on the worker that accepted it.
  int net_threads = 1;
  int backlog = 256;
  /// Global cap across workers; accepts beyond it are answered with one
  /// best-effort UNAVAILABLE error line and closed.
  size_t max_connections = 4096;
  /// Per-connection pending-output bound. A reader slow enough to let
  /// this pile up is disconnected (never blocks the worker).
  size_t max_write_buffer_bytes = 64 * 1024 * 1024;
  /// Bound on how long a drain waits for clients to absorb final
  /// responses before closing on them.
  int drain_timeout_ms = 5000;
  /// Rows coalesced per `RepairBatch` by each worker's batcher. The worker
  /// thread owns its batcher and flushes it at the end of every epoll
  /// cycle, so batch execution (and therefore the response sink) stays on
  /// the worker thread — connection state needs no locks.
  size_t max_batch = 256;
};

/// Verbs that need process-level machinery the service doesn't own.
struct ServerHooks {
  /// `checkpoint` verb: persist now, return the generation. Unset maps to
  /// the same FAILED_PRECONDITION error stdio serve gives.
  serve::CheckpointHook checkpoint;
};

/// Non-blocking epoll TCP front end for a `RepairService`.
///
/// Speaks exactly the stdio `serve` line protocol (serve/protocol.h
/// parses the lines and answers the control verbs for both front ends),
/// reassembled across arbitrary packetization; the 64KiB request-line cap
/// holds across split reads. Repair rows flow through a per-worker
/// `serve::Batcher` into the service's plan snapshot, so the
/// `(seed, session_id, row_index)` determinism contract is untouched by
/// the network hop: per session, TCP output is bit-identical to offline
/// batch repair and to stdio serve.
///
/// A worker holds at most `max_batch` pending rows: every row it reads is
/// answered by the end of that epoll cycle, and input it has not read yet
/// waits in the client's socket, so TCP flow control is the backpressure.
/// Rows are never silently dropped. Oversized or unparseable-verb input
/// closes the connection after a sanitized error line; malformed
/// arguments to a known verb get an error line and the connection lives.
///
/// `Shutdown()` (idempotent, also run by the destructor) drains
/// gracefully: listeners close first, pending rows flush through the
/// batchers, pending output is written out under `drain_timeout_ms`, then
/// connections close.
class Server {
 public:
  static common::Result<std::unique_ptr<Server>> Create(serve::RepairService* service,
                                                        const ServerOptions& options,
                                                        ServerHooks hooks = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolved even when options.port was 0).
  uint16_t port() const { return port_; }
  const ServerOptions& options() const { return options_; }

  /// Graceful drain; blocks until every worker has exited.
  void Shutdown();

 private:
  struct Conn;
  struct Worker;

  Server(serve::RepairService* service, const ServerOptions& options, ServerHooks hooks);

  common::Status Start();
  void WorkerLoop(Worker& w);
  void AcceptBurst(Worker& w);
  void HandleReadable(Worker& w, Conn* c);
  void ProcessLines(Worker& w, Conn* c);
  void HandleLine(Worker& w, Conn* c, const std::string& line);
  void Output(Worker& w, Conn* c, const std::string& line);
  void FlushConn(Worker& w, Conn* c);
  void FlushDirty(Worker& w);
  void CloseConn(Worker& w, Conn* c);
  void DrainWorker(Worker& w);

  serve::RepairService* service_;
  ServerOptions options_;
  ServerHooks hooks_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> joined_{false};
  std::atomic<size_t> active_connections_{0};

  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_closed_ = nullptr;
  obs::Counter* connections_rejected_ = nullptr;
  obs::Counter* bytes_read_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* oversize_closed_ = nullptr;
  obs::Counter* orphan_responses_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
};

}  // namespace otfair::net

#endif  // OTFAIR_NET_SERVER_H_
