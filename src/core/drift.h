#ifndef OTFAIR_CORE_DRIFT_H_
#define OTFAIR_CORE_DRIFT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/repair_plan.h"
#include "stats/quantile_sketch.h"

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
  /// 1-Wasserstein distance between the streamed distribution (binned on
  /// the design grid) and the design-time marginal mu_{u,s,k}, normalized
  /// by the grid span — 0 means the stream matches the design
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
struct DriftOptions {
  /// Channels with fewer streamed values than this are not judged.
  size_t min_count = 200;
  /// Flag when normalized W1 exceeds this.
  double w1_threshold = 0.10;
  /// Flag when the out-of-range rate exceeds this.
  double out_of_range_threshold = 0.05;
};

/// Judges an archival stream against the design for violations of the
/// stationarity assumption the paper's off-sample repair rests on (§IV
/// requirement 2, §VI).
///
/// The repair plan is designed once on the research data; if the archive
/// later drifts (population ages, working hours shift, ...) the plan
/// silently degrades — the paper observes exactly this on the Adult data.
/// `sketches` summarize the stream per (u, s, k) channel, indexed
/// `(u * s_levels + s) * dim + k`. Each channel is judged from one
/// ascending `Cdfs` sweep of its sketch against the design-time marginal
/// on the channel's grid:
///
///  - count: the sketch's count;
///  - W1: step * sum_i |F_stream(m_i) - F_design(i)| / span, where m_i is
///    the midpoint between grid states i and i + 1 — the W1 between the
///    stream binned to the nearest grid state and the design marginal;
///  - out-of-range rate: the sketch's mass below `lo` plus its mass above
///    `hi`.
///
/// The sketch stands in for the exact values: each value moves at most
/// alpha |x| to its bucket value (alpha = kRelativeAccuracy). For values of
/// magnitude in [1e-12, 1e12], W1 therefore stays within
///
///     (alpha * max(|lo|, |hi|) / (1 - alpha) + step) / span
///
/// of the W1 of the exact values binned the same way (the first term moves
/// each value, the step covers a value and its bucket value rounding to
/// neighbouring states), and the out-of-range rate within the mass of
/// values lying within relative alpha / (1 - alpha) of `lo` or `hi`.
/// Channels with at least `min_count` values are judged against the
/// thresholds. Sketch counts are integers, so judging after every
/// micro-batch reproduces the one-shot report exactly.
///
/// Returns kInvalidArgument when `min_count` is 0 or `sketches` does not
/// hold one sketch per channel of `plans`.
common::Result<DriftReport> JudgeDrift(const RepairPlanSet& plans,
                                       const std::vector<stats::QuantileSketch>& sketches,
                                       const DriftOptions& options = {});

}  // namespace otfair::core

#endif  // OTFAIR_CORE_DRIFT_H_
