// Drift judgement contract tests. The load-bearing ones:
//
//  - The scenarios the serving verdict rests on: a stationary stream stays
//    quiet, shifted and out-of-range streams trip, thin channels are not
//    judged, the per-channel breakdown isolates the drifted channel, and
//    judging after every micro-batch reproduces the one-shot report.
//  - Oracle agreement: the histogram monitor serving judged drift with
//    before the channel sketches took over is kept here. On the drift-test
//    mixture at n_Q 16 / 50 / 512 and shifts 0 / 0.3 / 1.5 / 6 sigma, every
//    channel's sketch-judged W1 stays within the header's bound of the
//    histogram's, every out-of-range rate within the mass near the range
//    ends, and every verdict agrees.

#include "core/drift.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/rng.h"
#include "core/designer.h"
#include "sim/gaussian_mixture.h"
#include "stats/quantile_sketch.h"

namespace otfair::core {
namespace {

using stats::QuantileSketch;

struct Fixture {
  data::Dataset research;
  RepairPlanSet plans;
  sim::GaussianSimConfig config;
};

Fixture MakeFixture(uint64_t seed, size_t n_q = DesignOptions{}.n_q) {
  Fixture fx;
  fx.config = sim::GaussianSimConfig::PaperDefault();
  common::Rng rng(seed);
  auto research = sim::SimulateGaussianMixture(1000, fx.config, rng);
  EXPECT_TRUE(research.ok());
  fx.research = std::move(*research);
  DesignOptions options;
  options.n_q = n_q;
  auto plans = DesignDistributionalRepair(fx.research, options);
  EXPECT_TRUE(plans.ok());
  fx.plans = std::move(*plans);
  return fx;
}

/// One sketch per (u, s, k) channel of a plan set, fed every value as
/// serving feeds them.
class ChannelSketches {
 public:
  explicit ChannelSketches(const RepairPlanSet& plans)
      : s_levels_(plans.s_levels()),
        dim_(plans.dim()),
        sketches_(plans.u_levels() * plans.s_levels() * plans.dim()) {}

  void Observe(int u, int s, size_t k, double x) {
    sketches_[(static_cast<size_t>(u) * s_levels_ + static_cast<size_t>(s)) * dim_ + k].Add(x);
  }

  std::vector<QuantileSketch>& sketches() { return sketches_; }

 private:
  size_t s_levels_;
  size_t dim_;
  std::vector<QuantileSketch> sketches_;
};

DriftReport Judge(const RepairPlanSet& plans, const std::vector<QuantileSketch>& sketches,
                  const DriftOptions& options = {}) {
  auto report = JudgeDrift(plans, sketches, options);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? std::move(*report) : DriftReport{};
}

/// Streams `n` draws from the configured mixture (optionally shifted) into
/// `observe(u, s, k, x)`.
template <typename Observe>
void StreamMixture(const sim::GaussianSimConfig& config, size_t n, double shift,
                   common::Rng& rng, Observe&& observe) {
  for (size_t i = 0; i < n; ++i) {
    const int u = rng.Bernoulli(config.pr_u0) ? 0 : 1;
    const double pr_s0 = (u == 0) ? config.pr_s0_given_u0 : config.pr_s0_given_u1;
    const int s = rng.Bernoulli(pr_s0) ? 0 : 1;
    for (size_t k = 0; k < 2; ++k)
      observe(u, s, k, rng.Normal(config.mean[u][s][k] + shift, config.sigma));
  }
}

void StreamMixture(ChannelSketches& sketches, const sim::GaussianSimConfig& config, size_t n,
                   double shift, common::Rng& rng) {
  StreamMixture(config, n, shift, rng,
                [&](int u, int s, size_t k, double x) { sketches.Observe(u, s, k, x); });
}

TEST(DriftMonitorTest, StationaryStreamNotFlagged) {
  Fixture fx = MakeFixture(1);
  ChannelSketches stream(fx.plans);
  common::Rng rng(2);
  StreamMixture(stream, fx.config, 20000, 0.0, rng);
  const DriftReport report = Judge(fx.plans, stream.sketches());
  EXPECT_FALSE(report.drifted) << report.ToString();
  EXPECT_LT(report.worst_w1, 0.1);
}

TEST(DriftMonitorTest, ShiftedStreamFlagged) {
  Fixture fx = MakeFixture(3);
  ChannelSketches stream(fx.plans);
  common::Rng rng(4);
  StreamMixture(stream, fx.config, 20000, 1.5, rng);  // 1.5 sigma shift
  const DriftReport report = Judge(fx.plans, stream.sketches());
  EXPECT_TRUE(report.drifted) << report.ToString();
  EXPECT_GT(report.worst_w1, 0.1);
}

TEST(DriftMonitorTest, OutOfRangeRateDetected) {
  Fixture fx = MakeFixture(5);
  DriftOptions options;
  options.w1_threshold = 10.0;  // isolate the out-of-range signal
  ChannelSketches stream(fx.plans);
  common::Rng rng(6);
  StreamMixture(stream, fx.config, 5000, 6.0, rng);  // way outside the grid
  const DriftReport report = Judge(fx.plans, stream.sketches(), options);
  EXPECT_TRUE(report.drifted);
  EXPECT_GT(report.worst_out_of_range, 0.05);
}

TEST(DriftMonitorTest, SmallCountsNotJudged) {
  Fixture fx = MakeFixture(7);
  ChannelSketches stream(fx.plans);
  // A handful of wildly shifted values must not trip the alarm yet.
  for (int i = 0; i < 20; ++i) stream.Observe(0, 0, 0, 100.0);
  EXPECT_FALSE(Judge(fx.plans, stream.sketches()).drifted);
}

TEST(DriftMonitorTest, PerChannelBreakdownExposed) {
  Fixture fx = MakeFixture(8);
  ChannelSketches stream(fx.plans);
  common::Rng rng(9);
  // Drift only channel (u=0, s=0, k=1).
  for (int i = 0; i < 5000; ++i) {
    stream.Observe(0, 0, 0, rng.Normal(-1.0, 1.0));        // on-distribution
    stream.Observe(0, 0, 1, rng.Normal(-1.0 + 2.0, 1.0));  // shifted
  }
  const DriftReport report = Judge(fx.plans, stream.sketches());
  double drifted_w1 = -1.0;
  double clean_w1 = -1.0;
  for (const ChannelDrift& c : report.channels) {
    if (c.u == 0 && c.s == 0 && c.k == 1) drifted_w1 = c.w1_normalized;
    if (c.u == 0 && c.s == 0 && c.k == 0) clean_w1 = c.w1_normalized;
  }
  EXPECT_GT(drifted_w1, 3.0 * clean_w1);
}

TEST(DriftMonitorTest, ResetClearsState) {
  // The judgement holds no state of its own: restarted sketches (what a
  // plan reload installs) judge clean.
  Fixture fx = MakeFixture(10);
  ChannelSketches stream(fx.plans);
  common::Rng rng(11);
  StreamMixture(stream, fx.config, 5000, 2.0, rng);
  EXPECT_TRUE(Judge(fx.plans, stream.sketches()).drifted);
  for (QuantileSketch& sketch : stream.sketches()) sketch.Reset();
  const DriftReport report = Judge(fx.plans, stream.sketches());
  EXPECT_FALSE(report.drifted);
  for (const ChannelDrift& c : report.channels) EXPECT_EQ(c.count, 0u);
}

TEST(DriftMonitorTest, ReportRendering) {
  Fixture fx = MakeFixture(12);
  ChannelSketches stream(fx.plans);
  const std::string text = Judge(fx.plans, stream.sketches()).ToString();
  EXPECT_NE(text.find("stationary"), std::string::npos);
  EXPECT_NE(text.find("(u=0, s=0, k=0)"), std::string::npos);
}

TEST(DriftMonitorTest, RejectsBadOptions) {
  Fixture fx = MakeFixture(13);
  ChannelSketches stream(fx.plans);
  DriftOptions options;
  options.min_count = 0;
  EXPECT_EQ(JudgeDrift(fx.plans, stream.sketches(), options).status().code(),
            common::StatusCode::kInvalidArgument);
}

void ExpectReportsIdentical(const DriftReport& a, const DriftReport& b) {
  EXPECT_EQ(a.drifted, b.drifted);
  EXPECT_EQ(a.worst_w1, b.worst_w1);
  EXPECT_EQ(a.worst_out_of_range, b.worst_out_of_range);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].count, b.channels[i].count);
    // Exact equality is the point: integer bucket counts plus an identical
    // W1 summation order mean incremental accumulation must be bit-equal.
    EXPECT_EQ(a.channels[i].w1_normalized, b.channels[i].w1_normalized);
    EXPECT_EQ(a.channels[i].out_of_range_rate, b.channels[i].out_of_range_rate);
  }
}

TEST(DriftMonitorTest, IncrementalSnapshotsReproduceOneShotReport) {
  // The serving layer observes in micro-batches and judges between them;
  // the final judgement must match the single batch run exactly.
  Fixture fx = MakeFixture(14);
  ChannelSketches one_shot(fx.plans);
  ChannelSketches incremental(fx.plans);
  common::Rng rng_a(15);
  common::Rng rng_b(15);
  StreamMixture(one_shot, fx.config, 10000, 0.7, rng_a);
  size_t left = 10000;
  while (left > 0) {
    const size_t chunk = std::min<size_t>(left, 37);
    StreamMixture(incremental, fx.config, chunk, 0.7, rng_b);
    Judge(fx.plans, incremental.sketches());  // judging must not disturb state
    left -= chunk;
  }
  ExpectReportsIdentical(Judge(fx.plans, one_shot.sketches()),
                         Judge(fx.plans, incremental.sketches()));
}

TEST(DriftMonitorSerializationTest, CountsRoundTripReproducesReportExactly) {
  // The checkpointed drift state is the channel sketches: restored into
  // fresh sketches, they judge bit-identically.
  Fixture fx = MakeFixture(20);
  ChannelSketches stream(fx.plans);
  common::Rng rng(20);
  StreamMixture(stream, fx.config, 3000, 0.7, rng);

  std::string bytes;
  common::ByteWriter writer(&bytes);
  for (const QuantileSketch& sketch : stream.sketches()) sketch.SerializeTo(writer);
  std::vector<QuantileSketch> restored(stream.sketches().size());
  common::ByteReader reader(bytes);
  for (QuantileSketch& sketch : restored) ASSERT_TRUE(sketch.DeserializeFrom(reader).ok());
  EXPECT_TRUE(reader.exhausted());
  ExpectReportsIdentical(Judge(fx.plans, restored), Judge(fx.plans, stream.sketches()));
}

TEST(DriftMonitorSerializationTest, RestoreRejectsMismatchedGeometryAndCorruptPayloads) {
  Fixture fx = MakeFixture(21);
  ChannelSketches stream(fx.plans);
  common::Rng rng(21);
  StreamMixture(stream, fx.config, 500, 0.0, rng);

  // Sketches of another channel layout are refused, not reinterpreted.
  std::vector<QuantileSketch> short_of_one = stream.sketches();
  short_of_one.pop_back();
  EXPECT_EQ(JudgeDrift(fx.plans, short_of_one).status().code(),
            common::StatusCode::kInvalidArgument);
  // Truncated sketch payloads fail without mutating the target: its
  // channel still judges as unobserved.
  std::string bytes;
  common::ByteWriter writer(&bytes);
  stream.sketches()[0].SerializeTo(writer);
  for (size_t len : {size_t{0}, bytes.size() / 3, bytes.size() - 1}) {
    std::vector<QuantileSketch> target(stream.sketches().size());
    common::ByteReader reader(bytes.data(), len);
    EXPECT_FALSE(target[0].DeserializeFrom(reader).ok()) << "prefix " << len;
    uint64_t observed = 0;
    for (const auto& channel : Judge(fx.plans, target).channels) observed += channel.count;
    EXPECT_EQ(observed, 0u) << "prefix " << len << " left a partial restore";
  }
}

// --- Oracle agreement --------------------------------------------------------

/// The histogram monitor serving judged drift with before the channel
/// sketches: per (u, s, k) channel, the streamed values binned to their
/// nearest design-grid state, plus an out-of-range count.
class HistogramOracle {
 public:
  explicit HistogramOracle(const RepairPlanSet& plans)
      : dim_(plans.dim()), s_levels_(plans.s_levels()), u_levels_(plans.u_levels()) {
    for (size_t u = 0; u < u_levels_; ++u) {
      for (size_t s = 0; s < s_levels_; ++s) {
        for (size_t k = 0; k < dim_; ++k) {
          const ChannelPlan& channel = plans.At(static_cast<int>(u), k);
          Channel state;
          state.grid = channel.grid.points();
          state.design_pmf = channel.marginal[s].weights();
          state.counts.assign(state.grid.size(), 0);
          state.lo = state.grid.front();
          state.hi = state.grid.back();
          const double step =
              (state.hi - state.lo) / static_cast<double>(state.grid.size() - 1);
          state.inv_step = step > 0.0 ? 1.0 / step : 0.0;
          channels_.push_back(std::move(state));
        }
      }
    }
  }

  void Observe(int u, int s, size_t k, double x) {
    Channel& state = channels_[(static_cast<size_t>(u) * s_levels_ + static_cast<size_t>(s)) *
                                   dim_ +
                               k];
    ++state.total;
    if (x < state.lo || x > state.hi) ++state.out_of_range;
    double offset = (x - state.lo) * state.inv_step;
    if (offset < 0.0) offset = 0.0;
    size_t idx = static_cast<size_t>(offset + 0.5);
    if (idx >= state.grid.size()) idx = state.grid.size() - 1;
    ++state.counts[idx];
  }

  DriftReport Report(const DriftOptions& options = {}) const {
    DriftReport report;
    for (const Channel& state : channels_) {
      ChannelDrift drift;
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
          cum_stream += static_cast<double>(state.counts[q]) / static_cast<double>(state.total);
          w1 += std::fabs(cum_design - cum_stream) * step;
        }
        drift.w1_normalized = span > 0.0 ? w1 / span : 0.0;
      }
      if (state.total >= options.min_count) {
        report.worst_w1 = std::max(report.worst_w1, drift.w1_normalized);
        report.worst_out_of_range = std::max(report.worst_out_of_range, drift.out_of_range_rate);
        if (drift.w1_normalized > options.w1_threshold ||
            drift.out_of_range_rate > options.out_of_range_threshold)
          report.drifted = true;
      }
      report.channels.push_back(drift);
    }
    return report;
  }

 private:
  struct Channel {
    std::vector<double> design_pmf;
    std::vector<double> grid;
    std::vector<size_t> counts;
    double lo = 0.0;
    double hi = 0.0;
    double inv_step = 0.0;
    size_t total = 0;
    size_t out_of_range = 0;
  };

  size_t dim_;
  size_t s_levels_;
  size_t u_levels_;
  std::vector<Channel> channels_;
};

TEST(DriftJudgementTest, SketchJudgementStaysWithinItsBoundOfTheHistogramOracle) {
  constexpr double kAlpha = QuantileSketch::kRelativeAccuracy;
  constexpr double kSlack = 1e-12;  // floating-point summation order
  for (size_t n_q : {size_t{16}, size_t{50}, size_t{512}}) {
    Fixture fx = MakeFixture(30 + n_q, n_q);
    for (double shift_sigmas : {0.0, 0.3, 1.5, 6.0}) {
      SCOPED_TRACE("n_q=" + std::to_string(n_q) + " shift=" + std::to_string(shift_sigmas));
      ChannelSketches stream(fx.plans);
      HistogramOracle oracle(fx.plans);
      const size_t s_levels = fx.plans.s_levels();
      const size_t dim = fx.plans.dim();
      std::vector<std::vector<double>> values(stream.sketches().size());
      common::Rng rng(40 + n_q);
      StreamMixture(fx.config, 20000, shift_sigmas * fx.config.sigma, rng,
                    [&](int u, int s, size_t k, double x) {
                      stream.Observe(u, s, k, x);
                      oracle.Observe(u, s, k, x);
                      values[(static_cast<size_t>(u) * s_levels + static_cast<size_t>(s)) * dim +
                             k]
                          .push_back(x);
                    });
      const DriftReport judged = Judge(fx.plans, stream.sketches());
      const DriftReport exact = oracle.Report();
      EXPECT_EQ(judged.drifted, exact.drifted) << judged.ToString() << exact.ToString();
      ASSERT_EQ(judged.channels.size(), exact.channels.size());
      for (size_t c = 0; c < judged.channels.size(); ++c) {
        const ChannelDrift& got = judged.channels[c];
        const ChannelDrift& want = exact.channels[c];
        const SupportGrid& grid = fx.plans.At(got.u, got.k).grid;
        const double lo = grid.lo();
        const double hi = grid.hi();
        EXPECT_EQ(got.count, want.count) << "channel " << c;
        const double w1_bound =
            (kAlpha * std::max(std::fabs(lo), std::fabs(hi)) / (1.0 - kAlpha) + grid.step()) /
            (hi - lo);
        EXPECT_LE(std::fabs(got.w1_normalized - want.w1_normalized), w1_bound + kSlack)
            << "channel " << c;
        // Only a value within relative alpha / (1 - alpha) of an end can
        // land on the other side of it.
        const double near = kAlpha / (1.0 - kAlpha);
        const double near_ends =
            static_cast<double>(std::count_if(values[c].begin(), values[c].end(), [&](double x) {
              return std::fabs(x - lo) <= near * std::fabs(lo) ||
                     std::fabs(x - hi) <= near * std::fabs(hi);
            })) /
            static_cast<double>(values[c].size());
        EXPECT_LE(std::fabs(got.out_of_range_rate - want.out_of_range_rate), near_ends + kSlack)
            << "channel " << c;
      }
    }
  }
}

}  // namespace
}  // namespace otfair::core
