// The benchmark's three paths through otfair and what they share: the
// fixture layout, the run context and the report each run prints.
#ifndef OTFAIR_PERFBENCH_WORKLOADS_H_
#define OTFAIR_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/designer.h"
#include "data/dataset.h"
#include "bench_util.h"

namespace perfbench {

// Fixture shape. The research set is the paper's two-group mixture
// widened to 8 features (|S| = |U| = 2), so a design has 16 (u, k)
// channel tasks; the archive is four shards, one per vCPU of the 4-vCPU
// host the figures were taken on. Shards of 5k rows repair at the same
// rows/s as 25k-row ones there, but 25k-row passes (~12 MB touched per
// shard) read up to 1.6x apart from run to run as the host's shared
// cache came under other load.
inline constexpr size_t kDim = 8;
inline constexpr size_t kResearchRows = 3000;
inline constexpr size_t kNq = 512;
inline constexpr int kDesignThreads = 4;
inline constexpr size_t kShards = 4;
inline constexpr size_t kShardRows = 5000;
/// Rows of shard 0 on which every path's e_ratio is computed.
inline constexpr size_t kEratioRows = 5000;

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // fixtures and per-run outputs
  std::string otfair_bin;  // the `otfair` CLI under test
  std::string self_exe;    // this binary, for child processes
  std::string trace_path;  // where a traced run writes its spans
};

std::string ResearchPath(const RunContext& ctx);
std::string ShardPath(const RunContext& ctx, size_t shard);
std::string PlanPath(const RunContext& ctx);

/// Design options every path uses: n_Q = 512 and the default monotone
/// solver at `threads` lanes.
otfair::core::DesignOptions BenchDesignOptions(int threads);

/// Writes the research CSV, the four archive shards and the designed plan
/// for `seed` into `dir`. Runs in its own process, before the measured one
/// starts, so neither set-up time nor peak memory includes it.
otfair::common::Status GenerateFixtures(uint64_t seed, const std::string& dir);

/// What one run prints: metrics with units, operation counts and the
/// outcome of every output check.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the result.
  void Note(const std::string& line);
  /// Records a failed output check; the run's result turns incorrect.
  void Fail(const std::string& why);
  void Attempt(uint64_t n) { attempted_ += n; }
  void FailOps(uint64_t n) { failed_ += n; }
  /// Samples the host-speed probe (between iterations, never inside a
  /// timed region).
  void Probe() { probes_.push_back(HostProbeMs()); }
  double ProbeMedianMs() const { return Median(probes_); }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Prints the notes, then the result object as the last stdout line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<double> probes_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// "name: median X unit, pQ Y unit, n = N" where pQ is the highest
/// percentile with at least ten samples beyond it.
std::string TailSummary(const std::string& name, const std::vector<double>& samples,
                        const std::string& unit);
/// Notes whether the layer self times account for the reference time
/// within 10% (`share`: median of layer sum / reference over iterations),
/// naming each known gap and the remainder.
void CoverageNote(Report& report, const std::string& path, double share, double reference_ms,
                  const std::vector<std::pair<std::string, double>>& gaps);

/// Subset of `ds` made of its first `n` rows.
otfair::data::Dataset HeadRows(const otfair::data::Dataset& ds, size_t n);
/// E(repaired) / E(original) on the first kEratioRows rows of shard 0.
/// Computed after every timed region.
double ERatio(const otfair::data::Dataset& original, const otfair::data::Dataset& repaired);
/// Notes the e_ratio every untraced run prints; a value that is not
/// positive and finite is a failed check.
void NoteERatio(Report& report, double e_ratio);
/// True when both datasets hold bit-identical labels and features.
bool SameRows(const otfair::data::Dataset& a, const otfair::data::Dataset& b);

/// Per-path entry points. The untraced run reports the end-to-end metrics
/// of the named workload; the traced one reports that path's layers.
void RunDesign(const RunContext& ctx, Report& report);
void RunArchive(const RunContext& ctx, Report& report);
void RunServe(const RunContext& ctx, Report& report);
void TraceDesign(const RunContext& ctx, double seconds, bool own, Report& report,
                 std::vector<Tracer>& tracers);
void TraceArchive(const RunContext& ctx, double seconds, bool own, Report& report,
                  std::vector<Tracer>& tracers);
void TraceServe(const RunContext& ctx, double seconds, bool own, Report& report,
                std::vector<Tracer>& tracers);

/// Child-process entry for the design set-up probe: loads the research
/// CSV and runs the first (cold) design pipeline; prints its seconds.
int DesignSetupChild(const std::string& work_dir);

}  // namespace perfbench

#endif  // OTFAIR_PERFBENCH_WORKLOADS_H_
