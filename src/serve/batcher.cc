#include "serve/batcher.h"

#include <utility>

#include "obs/trace.h"

namespace otfair::serve {

using common::Status;

Batcher::Batcher(RepairService* service, const BatcherOptions& options, Sink sink)
    : service_(service),
      options_([&] {
        BatcherOptions o = options;
        if (o.max_batch == 0) o.max_batch = 1;
        if (o.max_queue_depth == 0) o.max_queue_depth = 1;
        return o;
      }()),
      sink_(std::move(sink)),
      queue_(options_.max_queue_depth) {}

Batcher::~Batcher() { Close(); }

Status Batcher::Submit(RowRequest&& request) {
  OTFAIR_TRACE_SPAN("admit");
  if (closed_.load(std::memory_order_acquire))
    return Status::Unavailable("batcher is closed");
  Item item{std::move(request), {}, false};
  if (options_.latency_sample_every == 1 ||
      (options_.latency_sample_every > 1 &&
       submit_counter_.fetch_add(1, std::memory_order_relaxed) %
               options_.latency_sample_every ==
           0)) {
    item.sampled = true;
    item.enqueue = std::chrono::steady_clock::now();
  }
  size_t size_after = 0;
  if (!queue_.TryPush(std::move(item), &size_after)) {
    // TryPush does not move on failure; hand the request back untouched.
    request = std::move(item.request);
    service_->metrics().AddRejected(1);
    return Status::Unavailable(queue_.closed() ? "batcher is closed"
                                               : "queue full (backpressure)");
  }
  // Caller-runs: the submitter that fills a batch executes it. This keeps
  // the hot path free of wakeup latency and makes backpressure natural —
  // a producer outrunning the service spends its own time repairing.
  if (size_after >= options_.max_batch) ExecuteOne();
  return Status::Ok();
}

size_t Batcher::ExecuteOne() {
  std::lock_guard<std::mutex> lock(exec_mu_);
  exec_items_.clear();
  const size_t n = queue_.TryPopBatch(options_.max_batch, &exec_items_);
  if (n == 0) return 0;
  OTFAIR_TRACE_SPAN("batch_flush");
  exec_requests_.clear();
  exec_requests_.reserve(n);
  for (Item& item : exec_items_) exec_requests_.push_back(std::move(item.request));
  service_->RepairBatch(exec_requests_.data(), n, &exec_responses_);
  // One completion stamp per batch: request latency = queue wait + batch
  // execution, which the shared endpoint captures for every sampled row.
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    if (exec_items_[i].sampled)
      service_->metrics().RecordLatencyUs(
          std::chrono::duration<double, std::micro>(now - exec_items_[i].enqueue).count());
    if (sink_) sink_(exec_responses_[i]);
  }
  return n;
}

void Batcher::Flush() {
  while (ExecuteOne() > 0) {
  }
}

void Batcher::Close() {
  closed_.store(true, std::memory_order_release);
  queue_.Close();
  Flush();
}

}  // namespace otfair::serve
