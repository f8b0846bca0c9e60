#ifndef OTFAIR_CORE_REPAIRER_H_
#define OTFAIR_CORE_REPAIRER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/repair_plan.h"
#include "data/dataset.h"
#include "stats/sampling.h"

namespace otfair::core {

/// How a located archival value is pushed through the plan row.
enum class TransportMode {
  /// The paper's Algorithm 2: Bernoulli neighbour choice from tau (Eq. 14)
  /// followed by a multinomial draw from the normalized plan row (Eq. 15).
  /// Randomized mass splitting preserves the target distribution exactly.
  kStochastic,
  /// Deterministic ablation: the tau-weighted mix of the two neighbouring
  /// rows' conditional-mean targets (a barycentric-projection / Monge-style
  /// map). No sampling noise, but mass splitting is collapsed, so the
  /// repaired marginal is a smoothed version of the target.
  kConditionalMean,
};

/// Options for Algorithm 2.
struct RepairOptions {
  uint64_t seed = 0x07fa12u;
  TransportMode mode = TransportMode::kStochastic;
  /// Partial-repair strength lambda in [0, 1] (§VI future-work knob):
  /// x' = (1 - lambda) * x + lambda * T(x). 1 is the paper's full repair.
  double strength = 1.0;
  /// Worker threads for the batch RepairDataset* entry points. 0 means
  /// the process-wide default (`OTFAIR_THREADS`, else hardware
  /// concurrency); 1 forces the serial path; negative is rejected.
  /// Batch output is bit-identical across thread counts (see the row
  /// sub-stream note on RepairDataset).
  int threads = 0;
};

/// Statistics accumulated while repairing.
struct RepairStats {
  size_t values_repaired = 0;
  /// Archival values outside the research range (clamped to the grid edge);
  /// the paper's stationarity assumption expects this to be rare.
  size_t values_clamped = 0;
  /// Plan rows with (numerically) zero mass that fell back to the nearest
  /// massive row.
  size_t empty_row_fallbacks = 0;

  RepairStats& operator+=(const RepairStats& other) {
    values_repaired += other.values_repaired;
    values_clamped += other.values_clamped;
    empty_row_fallbacks += other.empty_row_fallbacks;
    return *this;
  }
};

/// Algorithm 2: off-sample (archival) repair driven by the plans designed
/// on the research data.
///
/// Construction precomputes, per (u, s, k) channel and per grid row, an
/// alias table over the normalized plan row, so each repaired value costs
/// O(1) — independent of both the archive size n_A and (post-setup) n_Q.
/// That is what makes "torrents of archival data" feasible (§VI).
///
/// The repairer owns a copy of the plan set and its own RNG; repairs are
/// reproducible for a fixed seed and call sequence.
class OffSampleRepairer {
 public:
  /// Validates the plan set and builds sampling tables.
  static common::Result<OffSampleRepairer> Create(RepairPlanSet plans,
                                                  const RepairOptions& options = {});

  /// Repairs one labelled value of channel (u, s, k) — the streaming
  /// entry point, consuming the repairer's own RNG stream. CHECK-fails on
  /// out-of-range u/s/k or a non-finite x (programmer error).
  double RepairValue(int u, int s, size_t k, double x);

  /// As above but drawing from an externally supplied generator. Row i of
  /// RepairDataset* is repaired with `common::Rng::ForStream(options.seed,
  /// i)`, channels in k order, so a caller can replay any subset of rows,
  /// in any order, and reproduce the batch output bit-for-bit. Not safe to
  /// call concurrently on one repairer (it updates the shared stats()
  /// counters); for parallel repair use the batch entry points.
  double RepairValue(int u, int s, size_t k, double x, common::Rng& rng);

  /// Soft-label streaming repair for probabilistic protected attributes
  /// (§VI / ref. [39]): draws s ~ Bernoulli(pr_s1) and repairs under the
  /// drawn class, so the marginal of the output is the posterior-weighted
  /// mixture of the two class repairs. Binary |S| = 2 plans only.
  double RepairValueSoft(int u, double pr_s1, size_t k, double x);

  /// Repairs every feature of every row, using the dataset's own (u, s)
  /// labels. Returns a repaired copy; the input is untouched. A
  /// non-finite feature is InvalidArgument, as in the CSV reader.
  ///
  /// Batch determinism: row i draws from the decorrelated sub-stream
  /// `Rng::ForStream(options.seed, i)` rather than one shared sequential
  /// stream, so the output is a pure function of (plans, options.seed,
  /// dataset) — independent of row processing order and therefore
  /// bit-identical across `options.threads` settings.
  common::Result<data::Dataset> RepairDataset(const data::Dataset& dataset);

  /// As RepairDataset but with externally supplied s-labels (e.g. the
  /// s_hat|u estimates of core::LabelEstimator when archives are
  /// unlabelled).
  common::Result<data::Dataset> RepairDatasetWithLabels(const data::Dataset& dataset,
                                                        const std::vector<int>& s_labels);

  /// As RepairDataset but with per-row posteriors Pr[s = 1 | row] instead
  /// of hard labels. Row i first draws its class s ~ Bernoulli(pr_s1[i])
  /// from `Rng::ForStream(options.seed, i)`, then repairs every channel
  /// under s from the same generator.
  common::Result<data::Dataset> RepairDatasetSoft(const data::Dataset& dataset,
                                                  const std::vector<double>& pr_s1);

  /// The batch routine of Algorithm 2 behind every RepairDataset* entry
  /// point and serving's RepairBatch. Rows are bucketed by their (u, s)
  /// label pair and cut into chunks of at most 256; each chunk is gathered
  /// channel-major, repaired one (u, s, k) channel at a time (so every
  /// table lookup run stays inside one channel's alias arena) and
  /// scattered back. Chunks spread over `options.threads` lanes.
  ///
  /// `rows` says how row i < count is found, through const members:
  ///   bool skip(size_t i)                        true leaves row i alone
  ///   int u(size_t i), int s(size_t i)           in-range group labels
  ///   double feature(size_t i, size_t k)         the value to repair (finite)
  ///   void set_feature(size_t i, size_t k, double repaired)
  ///   common::Rng rng(size_t i)                  row i's generator
  /// Row i's channels draw from rng(i) in k order, exactly as RepairValue
  /// would, so the output is independent of bucketing and schedule. Const
  /// and state-free: concurrent calls on one repairer are safe when their
  /// outputs are disjoint. Returns the batch's stats.
  template <typename Rows>
  RepairStats RepairRows(size_t count, const Rows& rows) const;

  const RepairStats& stats() const { return stats_; }
  const RepairPlanSet& plans() const { return plans_; }

 private:
  OffSampleRepairer(RepairPlanSet plans, const RepairOptions& options);

  /// Per-(u, s, k) sampling structures: a slot-major alias arena (one
  /// packed row per grid row, covering only that row's CSR support — the
  /// whole channel builds in O(nnz)) with its fallback rows, plus a
  /// conditional mean per row with mass. Arena slots carry the grid
  /// column payloads directly, so a draw needs no detour through the
  /// plan's column indices.
  struct ChannelTables {
    stats::AliasArena alias;               // slot-major, per grid row
    std::vector<double> conditional_mean;  // per grid row
  };

  /// Locate-pass scratch for RepairSpan, reused across a chunk's channels.
  struct SpanScratch {
    std::vector<uint32_t> q;    // located lower grid row per record
    std::vector<double> tau;    // neighbour interpolation weight per record
  };

  common::Status BuildTables();
  const ChannelTables& TablesFor(int u, int s, size_t k) const;

  /// One channel's stochastic tables as the transport kernels read them.
  common::simd::TransportChannel TransportView(const ChannelPlan& channel,
                                               const ChannelTables& tables) const;

  /// The transport of located records of one channel: Algorithm 2's
  /// draw through simd::Ops::transport, or the conditional-mean ablation,
  /// then the partial-repair blend. RepairSpan's second pass, and
  /// RepairValue's conditional-mean branch.
  void Transport(const ChannelPlan& channel, const ChannelTables& tables,
                 const common::simd::TransportRecords& records, RepairStats& stats) const;

  /// Repairs `count` finite values of the single channel (u, s, k),
  /// reading xs[t] and writing out[t] (the spans may alias); record t
  /// draws from the generator whose words are streams[w][t]. Two passes:
  /// locate every record, then transport them.
  void RepairSpan(int u, int s, size_t k, const double* xs, size_t count,
                  uint64_t* const streams[4], double* out, RepairStats& stats,
                  SpanScratch& scratch) const;

  RepairPlanSet plans_;
  RepairOptions options_;
  common::Rng rng_;
  RepairStats stats_;
  std::vector<ChannelTables> tables_;  // index: (u * |S| + s) * dim + k
};

template <typename Rows>
RepairStats OffSampleRepairer::RepairRows(size_t count, const Rows& rows) const {
  constexpr size_t kChunk = 256;
  const size_t s_levels = plans_.s_levels();
  const size_t dim = plans_.dim();
  std::vector<std::vector<uint32_t>> buckets(plans_.u_levels() * s_levels);
  for (size_t i = 0; i < count; ++i) {
    if (rows.skip(i)) continue;
    buckets[static_cast<size_t>(rows.u(i)) * s_levels + static_cast<size_t>(rows.s(i))]
        .push_back(static_cast<uint32_t>(i));
  }
  struct Chunk {
    uint32_t bucket;
    uint32_t begin;
    uint32_t end;
  };
  std::vector<Chunk> chunks;
  for (size_t b = 0; b < buckets.size(); ++b) {
    for (size_t begin = 0; begin < buckets[b].size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, buckets[b].size());
      chunks.push_back(Chunk{static_cast<uint32_t>(b), static_cast<uint32_t>(begin),
                             static_cast<uint32_t>(end)});
    }
  }
  // Per-chunk stats slots, summed after the loop: the totals cannot
  // depend on the schedule.
  std::vector<RepairStats> chunk_stats(chunks.size());
  common::parallel::ParallelFor(
      0, chunks.size(),
      [&](size_t ci) {
        const Chunk& c = chunks[ci];
        const uint32_t* ids = buckets[c.bucket].data() + c.begin;
        const int u = static_cast<int>(c.bucket / s_levels);
        const int s = static_cast<int>(c.bucket % s_levels);
        const size_t m = c.end - c.begin;
        // k-major gather: channel k's values for the whole chunk form one
        // contiguous span, repaired in place by RepairSpan. The chunk's
        // generators are kept one array per state word, as the transport
        // kernels load them.
        std::vector<double> buf(m * dim);
        std::vector<uint64_t> words(4 * m);
        uint64_t* const streams[4] = {words.data(), words.data() + m, words.data() + 2 * m,
                                      words.data() + 3 * m};
        for (size_t t = 0; t < m; ++t) {
          const common::Rng::Words state = rows.rng(ids[t]).State();
          for (size_t w = 0; w < 4; ++w) streams[w][t] = state[w];
        }
        for (size_t k = 0; k < dim; ++k)
          for (size_t t = 0; t < m; ++t) buf[k * m + t] = rows.feature(ids[t], k);
        RepairStats local;
        SpanScratch scratch;
        for (size_t k = 0; k < dim; ++k)
          RepairSpan(u, s, k, buf.data() + k * m, m, streams, buf.data() + k * m, local,
                     scratch);
        for (size_t k = 0; k < dim; ++k)
          for (size_t t = 0; t < m; ++t) rows.set_feature(ids[t], k, buf[k * m + t]);
        chunk_stats[ci] = local;
      },
      static_cast<size_t>(options_.threads));
  RepairStats total;
  for (const RepairStats& stats : chunk_stats) total += stats;
  return total;
}

}  // namespace otfair::core

#endif  // OTFAIR_CORE_REPAIRER_H_
