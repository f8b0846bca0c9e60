#ifndef OTFAIR_SERVE_BATCHER_H_
#define OTFAIR_SERVE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/work_queue.h"
#include "serve/repair_service.h"

namespace otfair::serve {

struct BatcherOptions {
  /// Rows coalesced into one RepairBatch call.
  size_t max_batch = 256;
  /// Pending-row bound; a Submit against a full queue is rejected with
  /// UNAVAILABLE (explicit backpressure — the service never buffers
  /// unboundedly). May be smaller than max_batch, in which case batches
  /// fill only to the queue capacity.
  size_t max_queue_depth = 4096;
  /// Latency histogram sampling: every Nth accepted row is timestamped
  /// and recorded (1 = every row). Sampling keeps the hot path down to
  /// one clock read per N rows while the quantiles stay statistically
  /// faithful at serving rates. 0 disables latency recording.
  size_t latency_sample_every = 16;
};

/// Micro-batching front end of a `RepairService`.
///
/// Producers call `Submit` with single rows from any number of threads;
/// the batcher coalesces them into `max_batch`-row `RepairBatch` calls.
/// It owns no thread: a batch runs on the thread that fills it (caller-
/// runs, no handoff latency on the hot path), and a partial batch runs
/// when its front end calls `Flush()` or `Close()`. Each front end
/// flushes once it has answered what it read — stdio once per read, TCP
/// once per epoll cycle, replay when its input runs out — so a row never
/// waits on a timer.
///
/// Delivery contract: every accepted row is repaired and delivered to the
/// sink exactly once — including rows still queued at Close(). Responses
/// carry their (session, row) identity and are delivered in the order the
/// queue accepted them. The sink runs on whichever thread executes the
/// batch, under the execution lock: it must be thread-safe when several
/// threads submit or flush, and must not call back into the batcher.
class Batcher {
 public:
  using Sink = std::function<void(const RowResponse&)>;

  /// `service` must outlive the batcher.
  Batcher(RepairService* service, const BatcherOptions& options, Sink sink);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues one row. Returns UNAVAILABLE when the queue is full
  /// (backpressure) or the batcher is closed; on failure `request` is
  /// left intact so the caller may retry. When the submit fills a batch,
  /// the calling thread executes it before returning.
  common::Status Submit(RowRequest&& request);

  /// Synchronously drains and repairs everything pending. Callable from
  /// any thread, concurrently with Submits.
  void Flush();

  /// Rejects further submits and drains what remains.
  /// Idempotent; also run by the destructor.
  void Close();

  /// Pending rows (live gauge for metrics snapshots).
  size_t queue_depth() const { return queue_.size(); }

  const BatcherOptions& options() const { return options_; }

 private:
  struct Item {
    RowRequest request;
    /// Set only on sampled rows (see latency_sample_every).
    std::chrono::steady_clock::time_point enqueue;
    bool sampled = false;
  };

  /// Pops up to one batch, repairs it and delivers the responses;
  /// returns rows executed.
  size_t ExecuteOne();

  RepairService* service_;
  BatcherOptions options_;
  Sink sink_;
  common::BoundedWorkQueue<Item> queue_;
  /// Serializes batch execution; scratch buffers below are guarded by it.
  std::mutex exec_mu_;
  std::vector<Item> exec_items_;
  std::vector<RowRequest> exec_requests_;
  std::vector<RowResponse> exec_responses_;
  std::atomic<uint64_t> submit_counter_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_BATCHER_H_
