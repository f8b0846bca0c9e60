// The `design` path: research rows in memory -> plan designed, validated,
// serialized and with its repair tables built, as `otfair design` and the
// first step of `otfair repair` do.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/file_util.h"
#include "common/parallel.h"
#include "core/marginals.h"
#include "core/repairer.h"
#include "core/support_grid.h"
#include "data/csv.h"
#include "ot/barycenter.h"
#include "ot/solver.h"
#include "workloads.h"

namespace perfbench {

using otfair::common::Result;
using otfair::common::Status;
using otfair::core::OffSampleRepairer;
using otfair::core::RepairPlanSet;
using otfair::data::Dataset;

namespace {

constexpr int kSetupProcesses = 5;

/// The timed unit of the design workload: Algorithm 1 at `threads` lanes,
/// the CLI's 1e-5 validation, serialization and the repair-table build.
Status DesignPipeline(const Dataset& research, int threads, std::string* bytes,
                      std::optional<OffSampleRepairer>* repairer) {
  auto plans = otfair::core::DesignDistributionalRepair(research, BenchDesignOptions(threads));
  if (!plans.ok()) return plans.status();
  OTFAIR_RETURN_IF_ERROR(plans->Validate(1e-5));
  *bytes = plans->SerializeToString();
  auto created = OffSampleRepairer::Create(std::move(*plans));
  if (!created.ok()) return created.status();
  repairer->emplace(std::move(*created));
  return Status::Ok();
}

Result<std::string> ReadPlanBytes(const RunContext& ctx) {
  return otfair::common::ReadFileToString(PlanPath(ctx));
}

/// Algorithm 1 replayed channel by channel through the stage functions
/// the designer calls (binary |S|, default solver), one span per call.
Result<RepairPlanSet> ReplayDesign(const Dataset& research, Tracer& tracer) {
  Span root(tracer, "design.replay");
  const otfair::core::DesignOptions options = BenchDesignOptions(1);
  const size_t s_levels = research.s_levels();
  const size_t dim = research.dim();
  if (s_levels != 2) return Status::InvalidArgument("replay covers binary |S| only");
  RepairPlanSet plans(dim, research.feature_names(), s_levels, research.u_levels());
  auto lambdas = otfair::core::ResolveLambdas({}, options.target_t, s_levels);
  if (!lambdas.ok()) return lambdas.status();
  OTFAIR_RETURN_IF_ERROR(plans.set_lambdas(std::move(*lambdas)));
  plans.set_target_t(options.target_t);
  const std::shared_ptr<const otfair::ot::Solver> solver = otfair::ot::DefaultSolver();

  for (size_t u = 0; u < research.u_levels(); ++u) {
    const int ui = static_cast<int>(u);
    std::vector<std::vector<size_t>> idx_by_s(s_levels);
    for (size_t s = 0; s < s_levels; ++s)
      idx_by_s[s] = research.GroupIndices({ui, static_cast<int>(s)});
    const std::vector<size_t> idx_all = research.UIndices(ui);
    for (size_t k = 0; k < dim; ++k) {
      otfair::core::ChannelPlan& channel = plans.At(ui, k);
      const std::vector<double> stratum = research.FeatureColumn(k, idx_all);
      {
        Span span(tracer, "core.grid");
        auto grid = otfair::core::SupportGrid::FromSamples(stratum, options.n_q);
        if (!grid.ok()) return grid.status();
        channel.grid = std::move(*grid);
      }
      for (size_t s = 0; s < s_levels; ++s) {
        const std::vector<double> samples = research.FeatureColumn(k, idx_by_s[s]);
        Span span(tracer, "core.kde");
        auto marginal = otfair::core::InterpolateMarginal(samples, channel.grid, options.marginal);
        if (!marginal.ok()) return marginal.status();
        channel.marginal[s] = std::move(*marginal);
      }
      {
        Span span(tracer, "ot.barycenter");
        auto barycenter = otfair::ot::QuantileBarycenterOnGrid(
            channel.marginal[0], channel.marginal[1], options.target_t, channel.grid.points());
        if (!barycenter.ok()) return barycenter.status();
        channel.barycenter = std::move(*barycenter);
      }
      for (size_t s = 0; s < s_levels; ++s) {
        Span span(tracer, "ot.solve");
        auto plan = solver->Solve1DSparse(channel.marginal[s], channel.barycenter);
        if (!plan.ok()) return plan.status();
        channel.plan[s] = std::move(*plan);
      }
    }
  }
  return plans;
}

/// The Algorithm 1 stages the replay's layers must account for.
bool IsDesignStage(const std::string& name) {
  return name == "core.grid" || name == "core.kde" || name == "ot.barycenter" ||
         name == "ot.solve";
}

/// The replay followed by the pipeline's remaining stages, each a span.
Status TracedPipeline(const Dataset& research, Tracer& tracer, std::string* bytes) {
  auto plans = ReplayDesign(research, tracer);
  if (!plans.ok()) return plans.status();
  {
    Span span(tracer, "core.validate");
    OTFAIR_RETURN_IF_ERROR(plans->Validate(1e-5));
  }
  {
    Span span(tracer, "core.serialize");
    *bytes = plans->SerializeToString();
  }
  Span span(tracer, "core.table_build");
  return OffSampleRepairer::Create(std::move(*plans)).status();
}

/// e_ratio of the held-out archive (shard 0) repaired with a designed plan.
double HeldOutERatio(const RunContext& ctx, std::optional<OffSampleRepairer>& repairer,
                     Report& report) {
  auto archive = otfair::data::ReadCsv(ShardPath(ctx, 0));
  double e_ratio = std::nan("");
  if (archive.ok() && repairer.has_value()) {
    auto repaired = repairer->RepairDataset(HeadRows(*archive, kEratioRows));
    if (repaired.ok()) e_ratio = ERatio(*archive, *repaired);
  }
  if (!(e_ratio > 0.0)) report.Fail("held-out archive repair / E-metric failed");
  return e_ratio;
}

}  // namespace

int DesignSetupChild(const std::string& work_dir) {
  RunContext ctx;
  ctx.work_dir = work_dir;
  const int64_t start = NowNs();
  auto research = otfair::data::ReadCsv(ResearchPath(ctx));
  if (!research.ok()) return 1;
  // As `otfair design --threads=4` does before designing.
  otfair::common::parallel::SetThreadCount(kDesignThreads);
  std::string bytes;
  std::optional<OffSampleRepairer> repairer;
  const Status status = DesignPipeline(*research, kDesignThreads, &bytes, &repairer);
  const int64_t end = NowNs();
  auto expected = ReadPlanBytes(ctx);
  if (!status.ok() || !expected.ok() || bytes != *expected) return 1;
  std::printf("%.9f\n", static_cast<double>(end - start) / 1e9);
  return 0;
}

void RunDesign(const RunContext& ctx, Report& report) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupProcesses; ++i) {
    Child child = Spawn({ctx.self_exe, "design-setup", "--work-dir", ctx.work_dir}, true, false);
    const std::string out = child.out_fd >= 0 ? ReadAll(child.out_fd) : "";
    const int rc = WaitChild(&child);
    const double seconds = std::strtod(out.c_str(), nullptr);
    if (rc != 0 || !(seconds > 0.0)) {
      report.Fail("design set-up process " + std::to_string(i) + " exited " +
                  std::to_string(rc));
      return;
    }
    setup_s.push_back(seconds);
  }

  auto research = otfair::data::ReadCsv(ResearchPath(ctx));
  auto expected = ReadPlanBytes(ctx);
  if (!research.ok() || !expected.ok()) {
    report.Fail("cannot load the design fixtures");
    return;
  }
  otfair::common::parallel::SetThreadCount(kDesignThreads);
  std::string bytes;
  std::optional<OffSampleRepairer> repairer;
  std::vector<double> design_ms;
  double busy_s = 0.0;
  uint64_t wrong = 0;
  // The pool's workers sleep between designs; without the spinners their
  // vCPUs halt, and waking them costs what the host's load dictates.
  const IdleSpinners spinners;
  // One untimed design spawns the pool, as the set-up probe already paid.
  for (bool warm = true;; warm = false) {
    report.Probe();
    const int64_t start = NowNs();
    const Status status = DesignPipeline(*research, kDesignThreads, &bytes, &repairer);
    const int64_t end = NowNs();
    report.Attempt(1);
    if (!status.ok() || bytes != *expected) {
      ++wrong;
      if (wrong == 1)
        report.Fail(status.ok() ? "designed plan bytes differ from the fixture plan"
                                : "design failed: " + status.ToString());
    }
    if (!warm) {
      design_ms.push_back(static_cast<double>(end - start) / 1e6);
      busy_s += static_cast<double>(end - start) / 1e9;
    }
    if (design_ms.size() >= 3 && busy_s >= ctx.seconds) break;
  }
  report.FailOps(wrong);
  const double peak_mb = PeakRssMb();

  const double e_ratio = HeldOutERatio(ctx, repairer, report);

  report.Note(TailSummary("design_ms", design_ms, "ms"));
  NoteERatio(report, e_ratio);
  report.Metric("latency_ms", Median(design_ms), "ms");
  report.Metric("rows_per_s",
                static_cast<double>(kResearchRows * design_ms.size()) / busy_s, "rows/s");
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", peak_mb, "MB");
}

void TraceDesign(const RunContext& ctx, double seconds, bool own, Report& report,
                 std::vector<Tracer>& tracers) {
  auto research = otfair::data::ReadCsv(ResearchPath(ctx));
  auto expected = ReadPlanBytes(ctx);
  if (!research.ok() || !expected.ok()) {
    report.Fail("cannot load the design fixtures");
    return;
  }
  otfair::common::parallel::SetThreadCount(kDesignThreads);
  Tracer tracer(1);
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> serial_ms;
  std::vector<double> coverage;  // stage self times / serial design, per iteration
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  int64_t lanes_cpu_ns = 0;
  int64_t lanes_wall_ns = 0;
  std::string bytes;
  std::optional<OffSampleRepairer> repairer;
  if (!DesignPipeline(*research, kDesignThreads, &bytes, &repairer).ok())
    report.Fail("warm-up design failed");

  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t iteration = 0; iteration < 3 || NowNs() < deadline; ++iteration) {
    report.Probe();
    report.Attempt(3);
    {
      const int64_t start = NowNs();
      auto plans = otfair::core::DesignDistributionalRepair(*research, BenchDesignOptions(1));
      serial_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      if (!plans.ok() || plans->SerializeToString() != *expected) {
        report.FailOps(1);
        report.Fail("serial design differs from the fixture plan");
      }
    }
    // Untraced and traced replays alternate which goes first.
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (iteration % 2 == 0);
      tracer.enabled = traced;
      const size_t from = tracer.spans().size();
      const int64_t start = NowNs();
      const Status status = TracedPipeline(*research, tracer, &bytes);
      const double ms = static_cast<double>(NowNs() - start) / 1e6;
      (traced ? traced_ms : plain_ms).push_back(ms);
      if (traced) {
        const std::map<std::string, double> self_ms = SelfMsByName(tracer.spans(), from);
        double stages_ms = 0.0;
        for (const auto& [name, self] : self_ms) {
          layer_ms[name].push_back(self);
          if (IsDesignStage(name)) stages_ms += self;
        }
        coverage.push_back(stages_ms / serial_ms.back());
      }
      if (!status.ok() || bytes != *expected) {
        report.FailOps(1);
        report.Fail("replayed plan does not serialize byte-identically to the designer's");
      }
    }
    tracer.enabled = false;
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t wall0 = NowNs();
    const bool threaded_ok =
        otfair::core::DesignDistributionalRepair(*research, BenchDesignOptions(kDesignThreads))
            .ok();
    lanes_wall_ns += NowNs() - wall0;
    lanes_cpu_ns += ProcessCpuNs() - cpu0;
    if (!threaded_ok) report.Fail("threaded design failed");
  }

  for (const char* layer : {"core.grid", "core.kde", "ot.barycenter", "ot.solve",
                            "core.validate", "core.serialize", "core.table_build"})
    report.Metric(std::string(layer) + "_ms", Median(layer_ms[layer]), "ms");
  report.Metric("design.serial_ms", Median(serial_ms), "ms");
  report.Metric("design.coverage_pct", 100.0 * Median(coverage), "%");
  report.Metric("fairness.e_ratio", HeldOutERatio(ctx, repairer, report), "ratio");
  report.Metric("common.parallel_lanes",
                static_cast<double>(lanes_cpu_ns) / static_cast<double>(lanes_wall_ns), "lanes");
  CoverageNote(report, "design", Median(coverage), Median(serial_ms),
               {{"design.replay self (sample gathering)", Median(layer_ms["design.replay"])}});
  const double overhead = 100.0 * (Median(traced_ms) / Median(plain_ms) - 1.0);
  report.Note("design trace overhead: " + std::to_string(overhead) + " % (" +
              std::to_string(traced_ms.size()) + " interleaved pairs)");
  if (own) report.Metric("trace.overhead_pct", overhead, "%");
  tracers.push_back(std::move(tracer));
}

}  // namespace perfbench
