#include "core/drift_monitor.h"

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"

namespace otfair::core {

using common::Result;
using common::Status;

std::string DriftReport::ToString() const {
  std::ostringstream os;
  os << (drifted ? "DRIFT DETECTED" : "stationary") << "  worst W1=" << common::FormatDouble(worst_w1, 4)
     << "  worst out-of-range=" << common::FormatDouble(worst_out_of_range, 4) << "\n";
  for (const ChannelDrift& c : channels) {
    os << "  (u=" << c.u << ", s=" << c.s << ", k=" << c.k << ") n=" << c.count
       << "  W1=" << common::FormatDouble(c.w1_normalized, 4)
       << "  oor=" << common::FormatDouble(c.out_of_range_rate, 4) << "\n";
  }
  return os.str();
}

Result<DriftMonitor> DriftMonitor::Create(const RepairPlanSet& plans,
                                          const DriftMonitorOptions& options) {
  Status valid = plans.Validate(1e-5);
  if (!valid.ok()) return valid;
  if (options.min_count == 0) return Status::InvalidArgument("min_count must be positive");
  DriftMonitor monitor(plans.dim(), plans.s_levels(), plans.u_levels(), options);
  monitor.states_.resize(plans.u_levels() * plans.s_levels() * plans.dim());
  for (size_t u = 0; u < plans.u_levels(); ++u) {
    for (size_t s = 0; s < plans.s_levels(); ++s) {
      for (size_t k = 0; k < plans.dim(); ++k) {
        const ChannelPlan& channel = plans.At(static_cast<int>(u), k);
        ChannelState& state =
            monitor.StateFor(static_cast<int>(u), static_cast<int>(s), k);
        state.grid = channel.grid.points();
        state.design_pmf = channel.marginal[s].weights();
        state.counts.assign(state.grid.size(), 0);
        state.lo = state.grid.front();
        state.hi = state.grid.back();
        const double step =
            (state.hi - state.lo) / static_cast<double>(state.grid.size() - 1);
        state.inv_step = step > 0.0 ? 1.0 / step : 0.0;
      }
    }
  }
  return monitor;
}

DriftMonitor::ChannelState& DriftMonitor::StateFor(int u, int s, size_t k) {
  OTFAIR_CHECK(u >= 0 && static_cast<size_t>(u) < u_levels_);
  OTFAIR_CHECK(s >= 0 && static_cast<size_t>(s) < s_levels_);
  OTFAIR_CHECK_LT(k, dim_);
  return states_[(static_cast<size_t>(u) * s_levels_ + static_cast<size_t>(s)) * dim_ + k];
}

const DriftMonitor::ChannelState& DriftMonitor::StateFor(int u, int s, size_t k) const {
  return const_cast<DriftMonitor*>(this)->StateFor(u, s, k);
}

void DriftMonitor::Observe(int u, int s, size_t k, double x) {
  ChannelState& state = StateFor(u, s, k);
  ++state.total;
  if (x < state.lo || x > state.hi) ++state.out_of_range;
  // Nearest grid state (uniform spacing, precomputed reciprocal).
  double offset = (x - state.lo) * state.inv_step;
  if (offset < 0.0) offset = 0.0;
  size_t idx = static_cast<size_t>(offset + 0.5);
  if (idx >= state.grid.size()) idx = state.grid.size() - 1;
  ++state.counts[idx];
}

DriftReport DriftMonitor::Report() const {
  DriftReport report;
  for (size_t u = 0; u < u_levels_; ++u) {
    for (size_t s = 0; s < s_levels_; ++s) {
      for (size_t k = 0; k < dim_; ++k) {
        const ChannelState& state = StateFor(static_cast<int>(u), static_cast<int>(s), k);
        ChannelDrift drift;
        drift.u = static_cast<int>(u);
        drift.s = static_cast<int>(s);
        drift.k = k;
        drift.count = state.total;
        if (state.total > 0) {
          drift.out_of_range_rate =
              static_cast<double>(state.out_of_range) / static_cast<double>(state.total);
          // W1 between pmfs on a shared 1-D grid = step * sum_q |CDF gap|.
          const double span = state.grid.back() - state.grid.front();
          const double step = span / static_cast<double>(state.grid.size() - 1);
          double cum_design = 0.0;
          double cum_stream = 0.0;
          double w1 = 0.0;
          for (size_t q = 0; q < state.grid.size(); ++q) {
            cum_design += state.design_pmf[q];
            cum_stream +=
                static_cast<double>(state.counts[q]) / static_cast<double>(state.total);
            w1 += std::fabs(cum_design - cum_stream) * step;
          }
          drift.w1_normalized = span > 0.0 ? w1 / span : 0.0;
        }
        if (state.total >= options_.min_count) {
          report.worst_w1 = std::max(report.worst_w1, drift.w1_normalized);
          report.worst_out_of_range =
              std::max(report.worst_out_of_range, drift.out_of_range_rate);
          if (drift.w1_normalized > options_.w1_threshold ||
              drift.out_of_range_rate > options_.out_of_range_threshold) {
            report.drifted = true;
          }
        }
        report.channels.push_back(drift);
      }
    }
  }
  return report;
}

void DriftMonitor::Reset() {
  for (ChannelState& state : states_) {
    state.counts.assign(state.counts.size(), 0);
    state.total = 0;
    state.out_of_range = 0;
  }
}

void DriftMonitor::SerializeCounts(common::ByteWriter& writer) const {
  writer.U64(dim_);
  writer.U64(s_levels_);
  writer.U64(u_levels_);
  writer.U64(states_.size());
  for (const ChannelState& state : states_) {
    writer.U64(state.counts.size());
    // Grid bounds fingerprint the design the counts were binned against:
    // a same-shaped monitor built from a DIFFERENT plan set must refuse
    // the payload rather than reinterpret it on the wrong grid.
    writer.F64(state.lo);
    writer.F64(state.hi);
    for (size_t c : state.counts) writer.U64(c);
    writer.U64(state.total);
    writer.U64(state.out_of_range);
  }
}

common::Status DriftMonitor::RestoreCounts(common::ByteReader& reader) {
  uint64_t dim = 0, s_levels = 0, u_levels = 0, n_states = 0;
  if (!reader.U64(&dim) || !reader.U64(&s_levels) || !reader.U64(&u_levels) ||
      !reader.U64(&n_states))
    return Status::InvalidArgument("drift counts: truncated header");
  if (dim != dim_ || s_levels != s_levels_ || u_levels != u_levels_ ||
      n_states != states_.size())
    return Status::InvalidArgument(
        "drift counts: shape does not match the monitor's plan set");

  // Parse and validate fully into scratch before mutating any state.
  struct Parsed {
    std::vector<uint64_t> counts;
    uint64_t total = 0;
    uint64_t out_of_range = 0;
  };
  std::vector<Parsed> parsed(states_.size());
  for (size_t i = 0; i < states_.size(); ++i) {
    uint64_t n = 0;
    if (!reader.U64(&n)) return Status::InvalidArgument("drift counts: truncated channel");
    if (n != states_[i].counts.size())
      return Status::InvalidArgument("drift counts: grid size mismatch");
    double lo = 0.0, hi = 0.0;
    if (!reader.F64(&lo) || !reader.F64(&hi))
      return Status::InvalidArgument("drift counts: truncated channel");
    if (lo != states_[i].lo || hi != states_[i].hi)
      return Status::InvalidArgument(
          "drift counts: grid bounds do not match the monitor's plan set");
    if (!reader.Fits(n, sizeof(uint64_t)))
      return Status::InvalidArgument("drift counts: truncated channel");
    parsed[i].counts.resize(static_cast<size_t>(n));
    if (!reader.U64s(parsed[i].counts.data(), parsed[i].counts.size()) ||
        !reader.U64(&parsed[i].total) || !reader.U64(&parsed[i].out_of_range))
      return Status::InvalidArgument("drift counts: truncated channel");
    uint64_t sum = 0;
    for (uint64_t c : parsed[i].counts) {
      if (c > parsed[i].total || sum > parsed[i].total - c)
        return Status::InvalidArgument("drift counts: channel counts exceed total");
      sum += c;
    }
    if (sum != parsed[i].total || parsed[i].out_of_range > parsed[i].total)
      return Status::InvalidArgument("drift counts: inconsistent channel totals");
  }

  for (size_t i = 0; i < states_.size(); ++i) {
    ChannelState& state = states_[i];
    for (size_t q = 0; q < state.counts.size(); ++q)
      state.counts[q] += static_cast<size_t>(parsed[i].counts[q]);
    state.total += static_cast<size_t>(parsed[i].total);
    state.out_of_range += static_cast<size_t>(parsed[i].out_of_range);
  }
  return Status::Ok();
}

}  // namespace otfair::core
