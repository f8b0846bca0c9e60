#ifndef OTFAIR_SERVE_BATCHER_H_
#define OTFAIR_SERVE_BATCHER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "serve/repair_service.h"

namespace otfair::serve {

/// Micro-batching front end of a `RepairService`, owned by one thread.
///
/// The owner calls `Submit` with single rows; the batcher coalesces them
/// into `max_batch`-row `RepairBatch` calls. It owns no thread and takes
/// no lock: the `Submit` that brings the `max_batch`-th row repairs the
/// batch and delivers its responses before it returns, so the batcher
/// never holds more than `max_batch - 1` rows between calls. A partial
/// batch runs when the owner calls `Flush()` (or at destruction) once it
/// has answered what it read — stdio once per read, TCP once per epoll
/// cycle, each replay session when its input runs out — so a row never
/// waits on a timer. Input the owner has not read yet waits upstream (in
/// a socket, a pipe, an archive), not here.
///
/// Concurrency comes from owners, not from inside the batcher: every TCP
/// worker, the stdio loop and every replay session has its own batcher
/// over the shared, thread-safe service. A batcher is not thread-safe.
///
/// Delivery contract: every submitted row is repaired and delivered to the
/// sink exactly once, in submission order, on the owning thread. Responses
/// carry their (session, row) identity. The sink must not call back into
/// the batcher.
class Batcher {
 public:
  using Sink = std::function<void(const RowResponse&)>;

  /// Every kLatencySampleEvery-th submitted row is timestamped and its
  /// queue wait + batch execution recorded in the latency histogram: one
  /// clock read per 16 rows keeps the hot path cheap while the quantiles
  /// stay faithful at serving rates. Only these rows record an `admit`
  /// trace span.
  static constexpr uint64_t kLatencySampleEvery = 16;

  /// `service` must outlive the batcher; `max_batch` 0 is treated as 1.
  Batcher(RepairService* service, size_t max_batch, Sink sink);
  /// Flushes what is pending.
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Buffers one row; when it fills a batch, repairs the batch and
  /// delivers its responses before returning.
  void Submit(RowRequest&& request);

  /// Repairs and delivers every pending row (a no-op when none is).
  void Flush();

  /// Pending rows, always below `max_batch()` between calls (gauge for
  /// metrics snapshots).
  size_t queue_depth() const { return pending_.size(); }

  size_t max_batch() const { return max_batch_; }

 private:
  RepairService* service_;
  size_t max_batch_;
  Sink sink_;
  std::vector<RowRequest> pending_;
  /// Enqueue times of the sampled pending rows.
  std::vector<std::chrono::steady_clock::time_point> sampled_;
  std::vector<RowResponse> responses_;
  uint64_t submitted_ = 0;
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_BATCHER_H_
