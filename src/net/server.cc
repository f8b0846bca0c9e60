#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/protocol.h"

namespace otfair::net {

using common::Result;
using common::Status;

namespace {

/// A parse failure on a line whose first token is NOT a protocol verb is
/// garbage input (binary junk, the wrong protocol) and closes the
/// connection; a malformed line with a known verb is a client bug worth an
/// error line but not a disconnect.
bool KnownVerb(const std::string& line) {
  size_t i = line.find_first_not_of(" \t");
  if (i == std::string::npos) return false;
  const size_t j = line.find_first_of(" \t", i);
  return serve::IsProtocolVerb(
      std::string_view(line).substr(i, j == std::string::npos ? j : j - i));
}

}  // namespace

struct Server::Conn {
  int fd = -1;
  /// Unconsumed input bytes (at most one partial line after ProcessLines).
  std::string in;
  /// Pending output; [out_off, out.size()) is unsent.
  std::string out;
  size_t out_off = 0;
  /// Deliver pending output, then close (quit / oversize / garbage / EOF).
  bool close_after_flush = false;
  bool closed = false;
  bool dirty = false;
  bool read_eof = false;
  /// Sessions whose responses route here (the affinity map's reverse
  /// index, so closing the connection cleans the map in O(|sessions|)).
  std::unordered_set<uint64_t> sessions;
};

struct Server::Worker {
  int index = 0;
  Socket listen;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  /// session id -> connection currently owning it (last writer wins; a
  /// reconnecting client re-binds its sessions to the new connection).
  std::unordered_map<uint64_t, Conn*> session_owner;
  /// Connections (by fd) with output appended this epoll cycle.
  std::vector<int> dirty;
  /// Closed connections survive here until the end of the cycle so stack
  /// frames holding the pointer stay valid.
  std::vector<std::unique_ptr<Conn>> graveyard;
  /// Declared after the connection state its sink writes to, so it is
  /// destroyed (and flushes) first.
  std::unique_ptr<serve::Batcher> batcher;
  std::thread thread;

  ~Worker() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

Server::Server(serve::RepairService* service, const ServerOptions& options, ServerHooks hooks)
    : service_(service), options_(options), hooks_(std::move(hooks)) {}

Server::~Server() { Shutdown(); }

Result<std::unique_ptr<Server>> Server::Create(serve::RepairService* service,
                                               const ServerOptions& options,
                                               ServerHooks hooks) {
  if (service == nullptr) return Status::InvalidArgument("null service");
  if (options.net_threads < 1)
    return Status::InvalidArgument("net_threads must be >= 1 (got " +
                                   std::to_string(options.net_threads) + ")");
  if (options.max_connections < 1)
    return Status::InvalidArgument("max_connections must be >= 1");
  std::unique_ptr<Server> server(new Server(service, options, std::move(hooks)));

  // One Server per service lifetime: the registry rejects duplicate names.
  obs::Registry& registry = service->metrics().registry();
  auto counter = [&](const char* name, const char* help,
                     obs::Counter** out) -> Status {
    auto added = registry.AddCounter(name, help);
    if (!added.ok()) return added.status();
    *out = *added;
    return Status::Ok();
  };
  struct Spec {
    const char* name;
    const char* help;
    obs::Counter** slot;
  };
  const Spec specs[] = {
      {"otfair_net_connections_accepted_total", "TCP connections accepted",
       &server->connections_accepted_},
      {"otfair_net_connections_closed_total", "TCP connections closed",
       &server->connections_closed_},
      {"otfair_net_connections_rejected_total",
       "TCP connections refused at the max_connections cap",
       &server->connections_rejected_},
      {"otfair_net_bytes_read_total", "Bytes read from TCP clients",
       &server->bytes_read_},
      {"otfair_net_bytes_written_total", "Bytes written to TCP clients",
       &server->bytes_written_},
      {"otfair_net_protocol_errors_total",
       "Request lines rejected by the protocol parser", &server->protocol_errors_},
      {"otfair_net_oversize_closed_total",
       "Connections closed for exceeding the request line cap or garbage input",
       &server->oversize_closed_},
      {"otfair_net_orphan_responses_total",
       "Repaired rows whose connection closed before delivery",
       &server->orphan_responses_},
  };
  for (const Spec& spec : specs)
    if (Status status = counter(spec.name, spec.help, spec.slot); !status.ok())
      return status;
  auto gauge = registry.AddGauge("otfair_net_active_connections",
                                 "Currently open TCP client connections");
  if (!gauge.ok()) return gauge.status();
  server->active_gauge_ = *gauge;

  if (Status status = server->Start(); !status.ok()) {
    server->Shutdown();
    return status;
  }
  return server;
}

Status Server::Start() {
  uint16_t port = options_.port;
  for (int i = 0; i < options_.net_threads; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    // The first bind resolves an ephemeral port; the rest share it via
    // SO_REUSEPORT, so the kernel distributes accepts across workers.
    uint16_t bound = 0;
    auto listener = ListenTcp(options_.host, port, options_.backlog, &bound);
    if (!listener.ok()) return listener.status();
    worker->listen = std::move(*listener);
    if (i == 0) {
      port = bound;
      port_ = bound;
    }
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0)
      return Status::Internal(std::string("epoll_create1: ") + std::strerror(errno));
    worker->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (worker->wake_fd < 0)
      return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;  // level-triggered: re-notified while accepts pend
    ev.data.fd = worker->listen.fd();
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->listen.fd(), &ev) < 0)
      return Status::Internal(std::string("epoll_ctl(listen): ") + std::strerror(errno));
    ev.data.fd = worker->wake_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev) < 0)
      return Status::Internal(std::string("epoll_ctl(wake): ") + std::strerror(errno));

    Worker* w = worker.get();
    worker->batcher = std::make_unique<serve::Batcher>(
        service_, options_.max_batch, [this, w](const serve::RowResponse& response) {
          // Runs on the worker thread only (the batcher's owner), so
          // touching connection state here is race-free.
          auto it = w->session_owner.find(response.session_id);
          if (it == w->session_owner.end() || it->second->closed) {
            orphan_responses_->Add(1);
            return;
          }
          Output(*w, it->second, serve::FormatRowResponse(response));
        });
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  return Status::Ok();
}

void Server::Shutdown() {
  stop_.store(true, std::memory_order_release);
  if (joined_.exchange(true)) return;
  for (auto& worker : workers_) {
    if (worker->wake_fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t rc = ::write(worker->wake_fd, &one, sizeof(one));
    }
  }
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

void Server::WorkerLoop(Worker& w) {
  std::vector<epoll_event> events(256);
  while (!stop_.load(std::memory_order_acquire)) {
    // Every cycle ends with the batcher empty, so the wait is a coarse tick
    // (the wake eventfd makes shutdown prompt regardless).
    const int n = ::epoll_wait(w.epoll_fd, events.data(), static_cast<int>(events.size()), 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      const int fd = ev.data.fd;
      if (fd == w.listen.fd()) {
        AcceptBurst(w);
        continue;
      }
      if (fd == w.wake_fd) {
        uint64_t junk;
        while (::read(w.wake_fd, &junk, sizeof(junk)) > 0) {
        }
        continue;
      }
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      Conn* c = it->second.get();
      if (ev.events & EPOLLIN) HandleReadable(w, c);
      if (!c->closed && (ev.events & EPOLLOUT)) FlushConn(w, c);
      if (!c->closed && (ev.events & (EPOLLERR | EPOLLHUP))) CloseConn(w, c);
    }
    // Flushing once per cycle bounds a partial batch's latency at one
    // epoll cycle while still coalescing rows across every connection
    // that was readable.
    w.batcher->Flush();
    FlushDirty(w);
    w.graveyard.clear();
  }
  DrainWorker(w);
}

void Server::AcceptBurst(Worker& w) {
  OTFAIR_TRACE_SPAN("net_accept");
  while (true) {
    const int fd = ::accept4(w.listen.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // EAGAIN, or a transient accept failure — next event retries
    }
    if (active_connections_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      connections_rejected_->Add(1);
      const std::string line =
          serve::FormatErrorLine(Status::Unavailable("connection limit reached")) + "\n";
      size_t sent = 0;
      bool would_block = false;
      WriteSome(fd, line.data(), line.size(), &sent, &would_block);
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);  // best effort; latency benefits only
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    w.conns.emplace(fd, std::move(conn));
    connections_accepted_->Add(1);
    active_gauge_->Set(static_cast<double>(active_connections_.load(std::memory_order_relaxed)));
  }
}

void Server::HandleReadable(Worker& w, Conn* c) {
  OTFAIR_TRACE_SPAN("net_read");
  char buf[16384];
  // Edge-triggered: read until EAGAIN. Lines are processed chunk by chunk
  // so a flood never accumulates more than one read's worth past the
  // request-line cap.
  while (!c->closed && !c->close_after_flush) {
    size_t n = 0;
    bool would_block = false;
    if (Status status = ReadSome(c->fd, buf, sizeof(buf), &n, &would_block); !status.ok()) {
      CloseConn(w, c);
      return;
    }
    if (would_block) break;
    if (n == 0) {
      c->read_eof = true;
      break;
    }
    bytes_read_->Add(n);
    c->in.append(buf, n);
    ProcessLines(w, c);
  }
  if (!c->closed && c->read_eof && !c->close_after_flush) {
    // Half-close: the client is done sending but may still be reading.
    // Deliver every response it is owed, then FIN back.
    w.batcher->Flush();
    c->close_after_flush = true;
    FlushConn(w, c);
  }
}

void Server::ProcessLines(Worker& w, Conn* c) {
  size_t start = 0;
  while (!c->closed && !c->close_after_flush) {
    const size_t nl = c->in.find('\n', start);
    const size_t line_len =
        (nl == std::string::npos ? c->in.size() : nl) - start;
    if (line_len > serve::kMaxRequestLineBytes) {
      // The cap holds across split reads: a newline-less line is rejected
      // as soon as the buffered prefix alone exceeds it.
      oversize_closed_->Add(1);
      Output(w, c,
             serve::FormatErrorLine(Status::InvalidArgument(
                 "request line exceeds " + std::to_string(serve::kMaxRequestLineBytes) +
                 " bytes")));
      c->close_after_flush = true;
      break;
    }
    if (nl == std::string::npos) break;
    std::string line = c->in.substr(start, line_len);
    start = nl + 1;
    while (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    HandleLine(w, c, line);
  }
  c->in.erase(0, start);
}

void Server::HandleLine(Worker& w, Conn* c, const std::string& line) {
  serve::RowResponse refused;
  auto request = serve::ParseRequestLine(line, service_->dim(), service_->u_levels(),
                                         service_->s_levels(), &refused);
  if (!request.ok()) {
    protocol_errors_->Add(1);
    Output(w, c,
           refused.status.ok() ? serve::FormatErrorLine(request.status())
                               : serve::FormatRowResponse(refused));
    if (!KnownVerb(line)) {
      // Garbage (unknown verb / binary junk): sanitized error line, then
      // disconnect — this stream is not speaking the protocol.
      oversize_closed_->Add(1);
      c->close_after_flush = true;
    }
    return;
  }
  using serve::RequestKind;
  if (request->kind == RequestKind::kRepair) {
    const uint64_t session = request->row.session_id;
    // Bind the session to this connection before Submit: a full batch
    // executes caller-runs and delivers through the sink inline.
    w.session_owner[session] = c;
    c->sessions.insert(session);
    w.batcher->Submit(std::move(request->row));
  } else if (request->kind == RequestKind::kQuit) {
    // Per-connection goodbye (the process keeps serving): deliver the
    // rows this worker still has pending, then close after the flush.
    w.batcher->Flush();
    c->close_after_flush = true;
  } else {
    // Session affinity pins this connection's rows to this worker's
    // batcher, so a checkpoint flushing it covers every row the
    // connection submitted before the verb.
    Output(w, c,
           serve::AnswerControlRequest(*request, *service_, *w.batcher, hooks_.checkpoint));
  }
}

void Server::Output(Worker& w, Conn* c, const std::string& line) {
  if (c->closed) {
    orphan_responses_->Add(1);
    return;
  }
  c->out += line;
  c->out += '\n';
  if (!c->dirty) {
    c->dirty = true;
    w.dirty.push_back(c->fd);
  }
  // Opportunistic flush keeps memory flat during huge pipelined bursts.
  if (c->out.size() - c->out_off >= 256 * 1024) FlushConn(w, c);
  if (!c->closed && c->out.size() - c->out_off > options_.max_write_buffer_bytes)
    CloseConn(w, c);  // reader too slow to ever catch up
}

void Server::FlushConn(Worker& w, Conn* c) {
  if (c->closed) return;
  OTFAIR_TRACE_SPAN("net_flush");
  while (c->out_off < c->out.size()) {
    size_t n = 0;
    bool would_block = false;
    if (Status status = WriteSome(c->fd, c->out.data() + c->out_off,
                                  c->out.size() - c->out_off, &n, &would_block);
        !status.ok()) {
      CloseConn(w, c);
      return;
    }
    if (would_block) break;  // EPOLLOUT edge resumes the flush
    c->out_off += n;
    bytes_written_->Add(n);
  }
  if (c->out_off == c->out.size()) {
    c->out.clear();
    c->out_off = 0;
    if (c->close_after_flush) CloseConn(w, c);
  } else if (c->out_off > (1u << 20)) {
    c->out.erase(0, c->out_off);
    c->out_off = 0;
  }
}

void Server::FlushDirty(Worker& w) {
  for (size_t i = 0; i < w.dirty.size(); ++i) {
    auto it = w.conns.find(w.dirty[i]);
    if (it == w.conns.end()) continue;
    Conn* c = it->second.get();
    c->dirty = false;
    if (!c->closed) FlushConn(w, c);
  }
  w.dirty.clear();
}

void Server::CloseConn(Worker& w, Conn* c) {
  if (c->closed) return;
  c->closed = true;
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  for (const uint64_t session : c->sessions) {
    auto it = w.session_owner.find(session);
    if (it != w.session_owner.end() && it->second == c) w.session_owner.erase(it);
  }
  connections_closed_->Add(1);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  active_gauge_->Set(static_cast<double>(active_connections_.load(std::memory_order_relaxed)));
  // Defer destruction to the end of the cycle: callers up the stack may
  // still hold the pointer.
  auto it = w.conns.find(c->fd);
  if (it != w.conns.end()) {
    w.graveyard.push_back(std::move(it->second));
    w.conns.erase(it);
  }
}

void Server::DrainWorker(Worker& w) {
  // Stop accepting first; in-flight work still completes.
  if (w.listen.valid()) {
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, w.listen.fd(), nullptr);
    w.listen.Close();
  }
  // Every row read gets repaired and its response buffered.
  w.batcher->Flush();
  // Bounded wait for clients to absorb the final responses.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    bool pending = false;
    std::vector<int> fds;
    fds.reserve(w.conns.size());
    for (const auto& entry : w.conns) fds.push_back(entry.first);
    for (const int fd : fds) {
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      Conn* c = it->second.get();
      if (c->closed) continue;
      FlushConn(w, c);
      if (!c->closed && c->out_off < c->out.size()) pending = true;
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<int> fds;
  fds.reserve(w.conns.size());
  for (const auto& entry : w.conns) fds.push_back(entry.first);
  for (const int fd : fds) {
    auto it = w.conns.find(fd);
    if (it != w.conns.end()) CloseConn(w, it->second.get());
  }
  w.graveyard.clear();
}

}  // namespace otfair::net
