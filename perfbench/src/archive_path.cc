// The `archive_repair` path: four archive CSV shards repaired
// concurrently in one process, each following the `otfair repair` call
// sequence (plan load and table build once, then CSV in -> repair with
// the archive's own labels at one lane -> CSV out).
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "core/repairer.h"
#include "data/csv.h"
#include "workloads.h"

namespace perfbench {

using otfair::common::Status;
using otfair::core::OffSampleRepairer;
using otfair::data::Dataset;

namespace {

constexpr int kSetupRounds = 31;

struct Shard {
  std::string in_path;
  std::string out_path;
  std::optional<OffSampleRepairer> repairer;
  Tracer tracer;
  std::vector<double> pass_ms;         // untraced passes
  std::vector<double> traced_pass_ms;  // traced passes
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> coverage;  // layer self times / pass, per traced pass
  double busy_s = 0.0;
  uint64_t rows = 0;
  uint64_t failed_rows = 0;
  std::string error;
};

otfair::core::RepairOptions ShardOptions() {
  otfair::core::RepairOptions options;
  options.threads = 1;
  return options;
}

/// Loads the plan and builds the repair tables of every shard
/// concurrently; returns the round's wall time in seconds.
double SetupRound(const RunContext& ctx, std::vector<Shard>& shards) {
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (Shard& shard : shards) {
    threads.emplace_back([&ctx, &shard] {
      auto plans = [&] {
        Span span(shard.tracer, "core.plan_load");
        return otfair::core::RepairPlanSet::LoadFromFile(PlanPath(ctx));
      }();
      if (!plans.ok()) {
        shard.error = plans.status().ToString();
        return;
      }
      Span span(shard.tracer, "core.table_build");
      auto repairer = OffSampleRepairer::Create(std::move(*plans), ShardOptions());
      if (!repairer.ok()) {
        shard.error = repairer.status().ToString();
        return;
      }
      shard.repairer.emplace(std::move(*repairer));
    });
  }
  for (std::thread& thread : threads) thread.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// One shard pass; `repaired` receives the output written to disk.
Status ShardPass(Shard& shard, Dataset* repaired) {
  Span root(shard.tracer, "archive.shard_pass");
  auto archive = [&] {
    Span span(shard.tracer, "data.csv_read");
    return otfair::data::ReadCsv(shard.in_path);
  }();
  if (!archive.ok()) return archive.status();
  auto output = [&] {
    Span span(shard.tracer, "core.repair");
    return shard.repairer->RepairDatasetWithLabels(*archive, archive->s_labels());
  }();
  if (!output.ok()) return output.status();
  // Every pass writes a new file, as repairing a stream of archive files
  // does. Truncating the previous output instead would make ext4 flush it
  // to disk on close (its replace-via-truncate heuristic), timing the disk.
  std::remove(shard.out_path.c_str());
  {
    Span span(shard.tracer, "data.csv_write");
    OTFAIR_RETURN_IF_ERROR(otfair::data::WriteCsv(*output, shard.out_path));
  }
  *repaired = std::move(*output);
  return Status::Ok();
}

/// Runs passes on one shard until `seconds` of passes are timed. With
/// `interleave_traced`, passes alternate between untraced and traced.
void ShardLoop(Shard& shard, double seconds, bool interleave_traced) {
  Dataset first;
  Dataset repaired;
  // The untimed first pass warms the page cache and sets the reference
  // output every later pass must reproduce.
  if (Status status = ShardPass(shard, &first); !status.ok()) {
    shard.error = status.ToString();
    return;
  }
  for (size_t pass = 0; pass < 3 || shard.busy_s < seconds; ++pass) {
    const bool traced = interleave_traced && pass % 2 == 1;
    shard.tracer.enabled = traced;
    const size_t from = shard.tracer.spans().size();
    const int64_t start = NowNs();
    const Status status = ShardPass(shard, &repaired);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    shard.busy_s += ms / 1e3;
    (traced ? shard.traced_pass_ms : shard.pass_ms).push_back(ms);
    if (traced) {
      double layers_ms = 0.0;
      for (const auto& [name, self] : SelfMsByName(shard.tracer.spans(), from)) {
        shard.layer_ms[name].push_back(self);
        if (name != "archive.shard_pass") layers_ms += self;
      }
      shard.coverage.push_back(layers_ms / ms);
    }
    shard.rows += first.size();
    if (!status.ok() || !SameRows(repaired, first)) {
      shard.failed_rows += first.size();
      if (shard.error.empty())
        shard.error = status.ok() ? "a pass produced different rows" : status.ToString();
    }
  }
  shard.tracer.enabled = false;
}

/// Reads every shard's output back and compares it with an in-memory
/// repair of the shard; computes e_ratio on shard 0 when asked.
void CheckOutputs(std::vector<Shard>& shards, Report& report, double* e_ratio) {
  for (size_t i = 0; i < shards.size(); ++i) {
    Shard& shard = shards[i];
    auto input = otfair::data::ReadCsv(shard.in_path);
    auto written = otfair::data::ReadCsv(shard.out_path);
    if (!input.ok() || !written.ok() || !shard.repairer.has_value()) {
      report.Fail("shard " + std::to_string(i) + " output could not be read back");
      continue;
    }
    auto expected = shard.repairer->RepairDatasetWithLabels(*input, input->s_labels());
    if (!expected.ok() || !SameRows(*expected, *written))
      report.Fail("shard " + std::to_string(i) +
                  " output CSV differs from the in-memory repair");
    if (i == 0 && e_ratio != nullptr) *e_ratio = ERatio(*input, *written);
  }
}

std::vector<Shard> MakeShards(const RunContext& ctx) {
  std::vector<Shard> shards(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards[i].in_path = ShardPath(ctx, i);
    shards[i].out_path = ctx.work_dir + "/repaired_" + std::to_string(i) + ".csv";
    shards[i].tracer = Tracer(static_cast<uint32_t>(10 + i));
  }
  return shards;
}

/// Runs the setup rounds; false (with a failed check) when any shard
/// could not load the plan.
bool Setup(const RunContext& ctx, std::vector<Shard>& shards, bool traced,
           std::vector<double>* round_s, Report& report) {
  for (Shard& shard : shards) shard.tracer.enabled = traced;
  for (int round = 0; round < kSetupRounds; ++round) {
    round_s->push_back(SetupRound(ctx, shards));
    for (const Shard& shard : shards) {
      if (!shard.error.empty()) {
        report.Fail("plan load / table build failed: " + shard.error);
        return false;
      }
    }
  }
  for (Shard& shard : shards) shard.tracer.enabled = false;
  return true;
}

/// Runs every shard's loop concurrently; returns process CPU / wall.
double RunShards(std::vector<Shard>& shards, double seconds, bool interleave_traced,
                 Report& report) {
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t wall0 = NowNs();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < shards.size(); ++i)
    threads.emplace_back([&shard = shards[i], i, seconds, interleave_traced] {
      // One shard per CPU, as four pinned `otfair repair` processes would
      // run: left to the scheduler, shard threads at times share a vCPU
      // and whole runs read up to 1.6x slower.
      PinToCpu(i);
      ShardLoop(shard, seconds, interleave_traced);
    });
  for (std::thread& thread : threads) thread.join();
  const double lanes = static_cast<double>(ProcessCpuNs() - cpu0) /
                       static_cast<double>(NowNs() - wall0);
  for (size_t i = 0; i < shards.size(); ++i) {
    report.Attempt(shards[i].rows);
    report.FailOps(shards[i].failed_rows);
    if (!shards[i].error.empty())
      report.Fail("shard " + std::to_string(i) + ": " + shards[i].error);
  }
  return lanes;
}

}  // namespace

void RunArchive(const RunContext& ctx, Report& report) {
  std::vector<Shard> shards = MakeShards(ctx);
  std::vector<double> setup_s;
  report.Probe();
  if (!Setup(ctx, shards, false, &setup_s, report)) return;
  report.Probe();
  RunShards(shards, ctx.seconds, false, report);
  report.Probe();
  const double peak_mb = PeakRssMb();

  std::vector<double> pass_ms;
  double rows_per_s = 0.0;
  double busy_s = 0.0;
  for (const Shard& shard : shards) {
    pass_ms.insert(pass_ms.end(), shard.pass_ms.begin(), shard.pass_ms.end());
    rows_per_s += static_cast<double>(shard.rows) / shard.busy_s;
    busy_s += shard.busy_s;
  }
  // Pass times are bimodal as the host's vCPUs change phase, so their
  // median jumps between modes from run to run; the mean moves smoothly
  // (in ten runs: IQR/median 0.22 for the median, 0.105 for the mean).
  const double mean_pass_ms = 1e3 * busy_s / static_cast<double>(pass_ms.size());
  double e_ratio = std::nan("");
  CheckOutputs(shards, report, &e_ratio);

  report.Note(TailSummary("shard pass (" + std::to_string(kShardRows) + " rows)", pass_ms,
                          "ms") +
              "; mean " + std::to_string(mean_pass_ms) + " ms");
  report.Note("repair_rows_per_s: " + std::to_string(rows_per_s) + " rows/s over " +
              std::to_string(kShards) + " concurrent shards");
  NoteERatio(report, e_ratio);
  report.Metric("latency_ms", mean_pass_ms, "ms");
  report.Metric("rows_per_s", rows_per_s, "rows/s");
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", peak_mb, "MB");
}

void TraceArchive(const RunContext& ctx, double seconds, bool own, Report& report,
                  std::vector<Tracer>& tracers) {
  std::vector<Shard> shards = MakeShards(ctx);
  std::vector<double> setup_s;
  if (!Setup(ctx, shards, true, &setup_s, report)) return;
  std::vector<double> plan_load_ms;
  std::vector<double> table_build_ms;
  for (const Shard& shard : shards)
    for (const SpanRecord& span : shard.tracer.spans())
      (std::string(span.name) == "core.plan_load" ? plan_load_ms : table_build_ms)
          .push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  report.Probe();
  const double lanes = RunShards(shards, seconds, true, report);
  report.Probe();
  CheckOutputs(shards, report, nullptr);

  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::vector<double> coverage;
  for (Shard& shard : shards) {
    coverage.insert(coverage.end(), shard.coverage.begin(), shard.coverage.end());
    for (auto& [name, samples] : shard.layer_ms)
      layer_ms[name].insert(layer_ms[name].end(), samples.begin(), samples.end());
    plain_ms.insert(plain_ms.end(), shard.pass_ms.begin(), shard.pass_ms.end());
    traced_ms.insert(traced_ms.end(), shard.traced_pass_ms.begin(), shard.traced_pass_ms.end());
    tracers.push_back(std::move(shard.tracer));
  }
  for (const char* layer : {"data.csv_read", "core.repair", "data.csv_write"})
    report.Metric(std::string(layer) + "_ms", Median(layer_ms[layer]), "ms");
  const double pass = Median(traced_ms);
  report.Metric("core.plan_load_ms", Median(plan_load_ms), "ms");
  report.Metric("archive.coverage_pct", 100.0 * Median(coverage), "%");
  report.Metric("archive.parallel_lanes", lanes, "lanes");
  report.Note("archive set-up: table build " + std::to_string(Median(table_build_ms)) +
              " ms per shard");
  CoverageNote(report, "archive", Median(coverage), pass,
               {{"archive.shard_pass self", Median(layer_ms["archive.shard_pass"])}});
  const double overhead = 100.0 * (pass / Median(plain_ms) - 1.0);
  report.Note("archive trace overhead: " + std::to_string(overhead) + " %");
  if (own) report.Metric("trace.overhead_pct", overhead, "%");
}

}  // namespace perfbench
