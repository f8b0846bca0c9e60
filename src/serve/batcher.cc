#include "serve/batcher.h"

#include <optional>
#include <utility>

#include "obs/trace.h"

namespace otfair::serve {

Batcher::Batcher(RepairService* service, size_t max_batch, Sink sink)
    : service_(service), max_batch_(max_batch == 0 ? 1 : max_batch), sink_(std::move(sink)) {
  pending_.reserve(max_batch_);
}

Batcher::~Batcher() { Flush(); }

void Batcher::Submit(RowRequest&& request) {
  // Only the rows the latency clock samples trace their admission: a span
  // per row would flood the thread's trace ring and push out the
  // batch-level spans.
  std::optional<obs::TraceSpan> admit;
  if (submitted_++ % kLatencySampleEvery == 0) {
    admit.emplace("admit");
    sampled_.push_back(std::chrono::steady_clock::now());
  }
  pending_.push_back(std::move(request));
  // Caller-runs: the submit that fills a batch executes it, so no row
  // waits on another thread and no buffer outgrows one batch.
  if (pending_.size() >= max_batch_) Flush();
}

void Batcher::Flush() {
  if (pending_.empty()) return;
  OTFAIR_TRACE_SPAN("batch_flush");
  const size_t n = pending_.size();
  service_->RepairBatch(pending_.data(), n, &responses_);
  // One completion stamp per batch: request latency = queue wait + batch
  // execution, recorded for every sampled row.
  const auto now = std::chrono::steady_clock::now();
  for (const auto enqueue : sampled_)
    service_->metrics().RecordLatencyUs(
        std::chrono::duration<double, std::micro>(now - enqueue).count());
  pending_.clear();
  sampled_.clear();
  if (sink_)
    for (size_t i = 0; i < n; ++i) sink_(responses_[i]);
}

}  // namespace otfair::serve
