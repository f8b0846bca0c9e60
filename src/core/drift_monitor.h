#ifndef OTFAIR_CORE_DRIFT_MONITOR_H_
#define OTFAIR_CORE_DRIFT_MONITOR_H_

#include <string>
#include <vector>

#include "common/byte_io.h"
#include "common/result.h"
#include "core/repair_plan.h"

namespace otfair::core {

/// Drift state of one (u, s, k) channel.
struct ChannelDrift {
  int u = 0;
  int s = 0;
  size_t k = 0;
  /// Values streamed through this channel so far.
  size_t count = 0;
  /// Fraction of streamed values outside the design-time research range.
  double out_of_range_rate = 0.0;
  /// 1-Wasserstein distance between the streamed empirical distribution
  /// (binned on the design grid) and the design-time marginal mu_{u,s,k},
  /// normalized by the grid span — 0 means the stream matches the design
  /// distribution, 1 means total separation across the support.
  double w1_normalized = 0.0;
};

/// Report over all channels plus the overall verdict.
struct DriftReport {
  std::vector<ChannelDrift> channels;
  /// Worst normalized W1 across channels with enough data.
  double worst_w1 = 0.0;
  /// Worst out-of-range rate across channels with enough data.
  double worst_out_of_range = 0.0;
  /// True when any watched channel exceeded a threshold.
  bool drifted = false;

  std::string ToString() const;
};

/// Options for drift detection.
struct DriftMonitorOptions {
  /// Channels with fewer streamed values than this are not judged.
  size_t min_count = 200;
  /// Flag when normalized W1 exceeds this.
  double w1_threshold = 0.10;
  /// Flag when the out-of-range rate exceeds this.
  double out_of_range_threshold = 0.05;
};

/// Watches an archival stream for violations of the stationarity assumption
/// the paper's off-sample repair rests on (§IV requirement 2, §VI).
///
/// The repair plan is designed once on the research data; if the archive
/// later drifts (population ages, working hours shift, ...) the plan
/// silently degrades — the paper observes exactly this on the Adult data.
/// `DriftMonitor` accumulates, per (u, s, k) channel, a histogram of the
/// streamed values on the design grid plus an out-of-range counter, and
/// compares the streamed empirical distribution against the design-time
/// interpolated marginal with a normalized 1-Wasserstein distance. When a
/// channel exceeds the thresholds the operator should re-collect research
/// data and re-design.
///
/// Observe() is O(1) per value; Report() is O(n_Q) per channel.
class DriftMonitor {
 public:
  /// The monitor holds its own copy of the design marginals/grids.
  static common::Result<DriftMonitor> Create(const RepairPlanSet& plans,
                                             const DriftMonitorOptions& options = {});

  /// Records one streamed archival value of channel (u, s, k). Call it with
  /// the same arguments as OffSampleRepairer::RepairValue.
  void Observe(int u, int s, size_t k, double x);

  /// Current drift assessment. The histogram state is pure integer
  /// counts, so judging after every micro-batch reproduces the one-shot
  /// batch report exactly — same counts, same W1, same verdict. The
  /// serving layer polls this under live traffic.
  DriftReport Report() const;

  /// Drops all accumulated counts (e.g. after a re-design).
  void Reset();

  /// Appends only the observed accumulators (shape header + per-channel
  /// counts/total/out_of_range) to `writer`. Grids and design pmfs are NOT
  /// serialized — at restore time they are rebuilt from the plan, which is
  /// checkpointed alongside, so the counts can be validated against real
  /// geometry instead of trusting bytes on disk.
  void SerializeCounts(common::ByteWriter& writer) const;

  /// Folds accumulators previously written by SerializeCounts into this
  /// monitor (integer addition — restoring into a freshly created monitor
  /// reproduces the serialized state exactly).
  /// Returns kInvalidArgument on any shape mismatch, truncation, or
  /// internally inconsistent counts, leaving this monitor untouched.
  common::Status RestoreCounts(common::ByteReader& reader);

 private:
  struct ChannelState {
    std::vector<double> design_pmf;   // mu_{u,s,k} on the grid
    std::vector<double> grid;         // grid points
    std::vector<size_t> counts;       // streamed histogram (per grid state)
    // Cached grid geometry: Observe is the serving hot path (8 calls per
    // repaired row), so the bounds and the reciprocal spacing are
    // precomputed instead of re-derived (two divisions) per value.
    double lo = 0.0;
    double hi = 0.0;
    double inv_step = 0.0;
    size_t total = 0;
    size_t out_of_range = 0;
  };

  DriftMonitor(size_t dim, size_t s_levels, size_t u_levels,
               const DriftMonitorOptions& options)
      : dim_(dim), s_levels_(s_levels), u_levels_(u_levels), options_(options) {}

  ChannelState& StateFor(int u, int s, size_t k);
  const ChannelState& StateFor(int u, int s, size_t k) const;

  size_t dim_ = 0;
  size_t s_levels_ = 2;
  size_t u_levels_ = 2;
  DriftMonitorOptions options_;
  std::vector<ChannelState> states_;  // index: (u * |S| + s) * dim + k
};

}  // namespace otfair::core

#endif  // OTFAIR_CORE_DRIFT_MONITOR_H_
