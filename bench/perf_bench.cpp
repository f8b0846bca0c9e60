// Performance trajectory harness: times the repo's hot paths with plain
// steady-clock timing and emits a JSON snapshot. `tools/run_bench.sh`
// drives it and the committed BENCH_*.json files are its output, so
// speedup claims in perf PRs are measured, not asserted.
//
// Benchmarks:
//   design_step        DesignDistributionalRepair wall time, per thread
//                      count (the paper's Algorithm 1: 2*dim channels).
//   repair_throughput_soa  OffSampleRepairer::RepairDataset rows/sec, per
//                      thread count (Algorithm 2's batch routine: rows
//                      grouped by (u, s), channel-major RepairSpan through
//                      the transport kernel). The name predates the
//                      removal of the row-by-row path and is kept so
//                      earlier snapshots stay comparable.
//   design_breakdown   the design pipeline at one lane (design, validate,
//                      serialize, repair tables), its stages timed one
//                      call at a time: grid, kde, barycenter, solve,
//                      validate, serialize, table_build. wall_ms is the
//                      untraced pipeline; the stages should sum to it
//                      within 10 %.
//   design_step_s4     the same stages on a 4-level protected attribute
//   repair_throughput_s4_soa  (|S| = 4): the multi-group K-scaling rows —
//                      design does |S| solves per channel, repair carries
//                      |S| x |U| x dim tables.
//   sinkhorn_log       single-thread entropic solve, n x n, on log-scaled
//                      potentials; ms_per_iter is the schedule-independent
//                      metric.
//   exact_solver       successive-shortest-path Kantorovich solve, n x n.
//   table_build        OffSampleRepairer::Create on CSR plans — the live
//                      O(nnz) repair-table path, per thread count.
//   plan_memory        resident CSR bytes and nnz per channel plan vs the
//                      dense n_Q x n_Q equivalent (not timed).
//   serve_throughput   rows/sec through the serving stack (RepairService
//                      + micro-batching Batcher, replay workload), per
//                      thread count — measures batching overhead against
//                      repair_throughput_soa.
//   serve_p99_latency_us  request latency quantiles from the serving
//                      metrics histogram on the same replay workload.
//   serve_net_throughput  rows/sec through the epoll TCP front end
//                      (in-process net::Server + library loadgen) at
//                      1/16/64/256 client connections — prices the
//                      network hop against serve_throughput.
//   serve_net_p99_us   client-observed round-trip latency quantiles for
//                      the same runs, per connection count.
//   lse_reduction      the fused log-sum-exp kernel (simd::LseDiff) on an
//                      n-length row — the log-domain Sinkhorn inner loop
//                      in isolation.
//   alias_lookup_batch alias-arena draws/sec on a repair-shaped table
//                      (n_q rows, CSR-support-sized), one scalar SampleCol
//                      at a time — the alias draw in isolation.
//   sketch_update_ns   ns per QuantileSketch::Add on a Gaussian stream —
//                      the per-value cost the serve path pays for every
//                      value of every repaired row (the channel sketches
//                      are its only drift state).
//   trace_overhead_disabled  ns per OTFAIR_TRACE_SPAN guard with span
//   trace_overhead_enabled   collection off (the serving default — must
//                      be branch-cheap) vs on (two clock reads plus a
//                      wait-free ring push): the tracing-is-free claim.
//   redesign_to_reload_ms  one full self-heal redesign on a drift-tripped
//                      service: sketch snapshot -> design -> validation ->
//                      hot ReloadPlan (Redesigner::AttemptRedesign), the
//                      recovery-latency half of the self-healing claim.
//
// Flags:
//   --out=FILE         JSON output path (default: perf_bench.json)
//   --smoke            tiny sizes: a CI harness check, not a measurement
//   --threads=1,2,4,8  thread counts for the scaling benchmarks
//   --repeats=3        repetitions; the minimum wall time is reported
//   --no_simd          force the scalar kernels (the JSON meta records
//                      the dispatched ISA either way)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/designer.h"
#include "core/marginals.h"
#include "core/repairer.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "obs/trace.h"
#include "ot/barycenter.h"
#include "ot/cost.h"
#include "ot/exact.h"
#include "ot/sinkhorn.h"
#include "ot/solver.h"
#include "serve/batcher.h"
#include "serve/checkpointer.h"
#include "serve/redesigner.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"
#include "stats/quantile_sketch.h"
#include "stats/sampling.h"

namespace {

using otfair::common::FlagParser;
using otfair::common::Matrix;
using otfair::common::Rng;
using otfair::common::Timer;

struct BenchCase {
  std::string name;
  int threads = 0;  // 0: not a threaded benchmark
  std::string params_json;
  int repeats = 0;
  double wall_ms = 0.0;
  double rows_per_sec = 0.0;          // repair only
  size_t iterations = 0;              // sinkhorn only
  double ms_per_iter = 0.0;           // sinkhorn only
  double nnz_per_plan = 0.0;          // plan_memory only
  double sparse_bytes_per_plan = 0.0; // plan_memory only
  double dense_bytes_per_plan = 0.0;  // plan_memory only
  double latency_p50_us = 0.0;        // serve latency only
  double latency_p99_us = 0.0;        // serve latency only
  double ns_per_op = 0.0;             // sketch_update only
  std::vector<std::pair<std::string, double>> stages_ms;  // design_breakdown only
};

/// Paper-style mixture generalized to `dim` features: the +/-1 mean
/// separation of the paper's bivariate config replicated across channels.
otfair::sim::GaussianSimConfig WideConfig(size_t dim) {
  otfair::sim::GaussianSimConfig config = otfair::sim::GaussianSimConfig::PaperDefault();
  config.dim = dim;
  config.mean[0][0].assign(dim, -1.0);
  config.mean[0][1].assign(dim, 0.0);
  config.mean[1][0].assign(dim, 1.0);
  config.mean[1][1].assign(dim, 0.0);
  return config;
}

struct OtProblem {
  std::vector<double> a;
  std::vector<double> b;
  Matrix cost;
};

OtProblem RandomOtProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  OtProblem p;
  p.a.resize(n);
  p.b.resize(n);
  double sa = 0.0;
  double sb = 0.0;
  for (double& v : p.a) sa += (v = rng.Uniform(0.2, 1.0));
  for (double& v : p.b) sb += (v = rng.Uniform(0.2, 1.0));
  for (double& v : p.a) v /= sa;
  for (double& v : p.b) v /= sb;
  std::vector<double> xs(n);
  std::vector<double> ys(n);
  for (double& v : xs) v = rng.Uniform(-1.0, 1.0);
  for (double& v : ys) v = rng.Uniform(-1.0, 1.0);
  p.cost = otfair::ot::SquaredEuclideanCost(xs, ys);
  return p;
}

/// Minimum wall time of `repeats` runs of `body` (which must not fail).
template <typename Fn>
double BestWallMs(int repeats, const Fn& body) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    body();
    const double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perf_bench: %s\n", what.c_str());
  std::exit(1);
}

/// The design pipeline's stages, named as perfbench's trace names them.
constexpr const char* kDesignStages[] = {"grid",     "kde",       "barycenter", "solve",
                                         "validate", "serialize", "table_build"};
enum DesignStage { kGrid, kKde, kBarycenter, kSolve, kValidate, kSerialize, kTableBuild };

template <typename T>
T OrDie(otfair::common::Result<T> result) {
  if (!result.ok()) Die(result.status().ToString());
  return std::move(*result);
}

/// The one-lane design pipeline with every stage call timed on its own:
/// Algorithm 1 replayed channel by channel through the functions the
/// designer calls (binary |S|, default options but n_q), then plan
/// validation, serialization and the repair-table build. Adds each
/// stage's time to `stage_ms` and returns the serialized plan.
std::string TimedDesignStages(const otfair::data::Dataset& research, size_t n_q,
                              double* stage_ms) {
  const size_t dim = research.dim();
  const size_t s_levels = research.s_levels();
  if (s_levels != 2) Die("design_breakdown covers binary |S| only");
  const double t = 0.5;
  otfair::core::RepairPlanSet plans(dim, research.feature_names(), s_levels,
                                    research.u_levels());
  if (!plans.set_lambdas(OrDie(otfair::core::ResolveLambdas({}, t, s_levels))).ok())
    Die("design_breakdown lambdas");
  plans.set_target_t(t);
  const std::shared_ptr<const otfair::ot::Solver> solver = otfair::ot::DefaultSolver();
  const std::vector<std::vector<size_t>> groups = research.GroupIndexBuckets();
  Timer timer;
  for (size_t u = 0; u < research.u_levels(); ++u) {
    for (size_t k = 0; k < dim; ++k) {
      otfair::core::ChannelPlan& channel = plans.At(static_cast<int>(u), k);
      std::vector<std::vector<double>> samples(s_levels);
      std::vector<double> stratum;
      for (size_t s = 0; s < s_levels; ++s) {
        samples[s] = research.FeatureColumn(k, groups[u * s_levels + s]);
        stratum.insert(stratum.end(), samples[s].begin(), samples[s].end());
      }
      timer.Restart();
      channel.grid = OrDie(otfair::core::SupportGrid::FromSamples(stratum, n_q));
      stage_ms[kGrid] += timer.ElapsedMillis();
      for (size_t s = 0; s < s_levels; ++s) {
        timer.Restart();
        channel.marginal[s] = OrDie(otfair::core::InterpolateMarginal(samples[s], channel.grid));
        stage_ms[kKde] += timer.ElapsedMillis();
      }
      timer.Restart();
      channel.barycenter = OrDie(otfair::ot::QuantileBarycenterOnGrid(
          channel.marginal, plans.lambdas(), channel.grid.points()));
      stage_ms[kBarycenter] += timer.ElapsedMillis();
      for (size_t s = 0; s < s_levels; ++s) {
        timer.Restart();
        channel.plan[s] = OrDie(solver->Solve1DSparse(channel.marginal[s], channel.barycenter));
        stage_ms[kSolve] += timer.ElapsedMillis();
      }
    }
  }
  timer.Restart();
  if (!plans.Validate(1e-5).ok()) Die("design_breakdown plan fails validation");
  stage_ms[kValidate] += timer.ElapsedMillis();
  timer.Restart();
  std::string bytes = plans.SerializeToString();
  stage_ms[kSerialize] += timer.ElapsedMillis();
  otfair::core::RepairOptions repair_options;
  repair_options.threads = 1;
  timer.Restart();
  OrDie(otfair::core::OffSampleRepairer::Create(std::move(plans), repair_options));
  stage_ms[kTableBuild] += timer.ElapsedMillis();
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (auto status = flags.Validate({"out", "smoke", "threads", "repeats", "no_simd"});
      !status.ok())
    Die(status.ToString());
  const std::string out_path = flags.GetString("out", "perf_bench.json");
  const bool smoke = flags.GetBool("smoke", false);
  if (flags.GetBool("no_simd", false)) otfair::common::simd::SetForceScalar(true);
  const std::vector<int> thread_counts = flags.GetIntList("threads", {1, 2, 4, 8});
  const int repeats = flags.GetInt("repeats", smoke ? 1 : 3);
  for (int t : thread_counts) {
    if (t < 1) Die("--threads entries must be >= 1");
  }

  // Workload sizes: the full profile targets the paper's n_Q >= 512
  // regime; smoke only proves the harness end-to-end.
  const size_t dim = 8;
  const size_t n_research = smoke ? 300 : 3000;
  const size_t n_archive = smoke ? 2000 : 150000;
  const size_t design_nq = smoke ? 48 : 512;
  const size_t sinkhorn_n = smoke ? 64 : 512;
  const size_t exact_n = smoke ? 24 : 256;

  std::vector<BenchCase> cases;
  char params[256];

  // --- Fixtures (untimed) -------------------------------------------------
  const otfair::sim::GaussianSimConfig config = WideConfig(dim);
  Rng sim_rng(0xbe9c);
  auto research = otfair::sim::SimulateGaussianMixture(n_research, config, sim_rng);
  if (!research.ok()) Die(research.status().ToString());
  auto archive = otfair::sim::SimulateGaussianMixture(n_archive, config, sim_rng);
  if (!archive.ok()) Die(archive.status().ToString());

  // --- design_step: thread scaling ---------------------------------------
  for (int t : thread_counts) {
    otfair::core::DesignOptions options;
    options.n_q = design_nq;
    options.threads = t;
    const double ms = BestWallMs(repeats, [&] {
      auto plans = otfair::core::DesignDistributionalRepair(*research, options);
      if (!plans.ok()) Die(plans.status().ToString());
    });
    BenchCase c;
    c.name = "design_step";
    c.threads = t;
    std::snprintf(params, sizeof(params), "{\"dim\": %zu, \"n_research\": %zu, \"n_q\": %zu}",
                  dim, n_research, design_nq);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = ms;
    cases.push_back(c);
    std::fprintf(stderr, "design_step       threads=%d  %10.2f ms\n", t, ms);
  }

  // --- design_breakdown: the one-lane pipeline, stage by stage -------------
  // Each repeat runs the untraced pipeline, then the staged replay, which
  // must serialize to the same bytes. wall_ms is the fastest pipeline and
  // each stage its fastest replay: host noise only adds time, so the
  // minima estimate the costs, as for every other row.
  {
    otfair::core::DesignOptions options;
    options.n_q = design_nq;
    options.threads = 1;
    otfair::core::RepairOptions repair_options;
    repair_options.threads = 1;
    double pipeline_ms = 0.0;
    std::vector<double> stage_ms(std::size(kDesignStages), 0.0);
    for (int r = 0; r < repeats; ++r) {
      Timer timer;
      auto plans = OrDie(otfair::core::DesignDistributionalRepair(*research, options));
      if (!plans.Validate(1e-5).ok()) Die("design_breakdown plan fails validation");
      const std::string bytes = plans.SerializeToString();
      OrDie(otfair::core::OffSampleRepairer::Create(std::move(plans), repair_options));
      const double ms = timer.ElapsedMillis();
      if (r == 0 || ms < pipeline_ms) pipeline_ms = ms;

      std::vector<double> stages(stage_ms.size(), 0.0);
      if (TimedDesignStages(*research, design_nq, stages.data()) != bytes)
        Die("design_breakdown replay differs from the designer's plan");
      for (size_t i = 0; i < stages.size(); ++i)
        if (r == 0 || stages[i] < stage_ms[i]) stage_ms[i] = stages[i];
    }
    BenchCase c;
    c.name = "design_breakdown";
    c.threads = 1;
    std::snprintf(params, sizeof(params), "{\"dim\": %zu, \"n_research\": %zu, \"n_q\": %zu}",
                  dim, n_research, design_nq);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = pipeline_ms;
    double stage_sum = 0.0;
    for (size_t i = 0; i < stage_ms.size(); ++i) {
      c.stages_ms.emplace_back(kDesignStages[i], stage_ms[i]);
      stage_sum += stage_ms[i];
    }
    cases.push_back(c);
    std::fprintf(stderr, "design_breakdown  threads=1  %10.2f ms  (stages sum to %.2f ms, %.1f %%)\n",
                 pipeline_ms, stage_sum, 100.0 * stage_sum / pipeline_ms);
  }

  // --- repair_throughput_soa: thread scaling ------------------------------
  {
    otfair::core::DesignOptions design_options;
    design_options.n_q = design_nq;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design_options);
    if (!plans.ok()) Die(plans.status().ToString());
    for (int t : thread_counts) {
      otfair::core::RepairOptions options;
      options.threads = t;
      auto repairer = otfair::core::OffSampleRepairer::Create(*plans, options);
      if (!repairer.ok()) Die(repairer.status().ToString());
      const double ms = BestWallMs(repeats, [&] {
        auto repaired = repairer->RepairDataset(*archive);
        if (!repaired.ok()) Die(repaired.status().ToString());
      });
      BenchCase c;
      c.name = "repair_throughput_soa";
      c.threads = t;
      std::snprintf(params, sizeof(params), "{\"dim\": %zu, \"n_archive\": %zu, \"n_q\": %zu}",
                    dim, n_archive, design_nq);
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = ms;
      c.rows_per_sec = static_cast<double>(n_archive) / (ms / 1e3);
      cases.push_back(c);
      std::fprintf(stderr, "%-21s threads=%d  %8.2f ms  (%.0f rows/s)\n", c.name.c_str(), t, ms,
                   c.rows_per_sec);
    }
  }

  // --- multi-group scaling: |S| = 4 design / repair ------------------------
  // The K-group pipeline does |S| OT solves per (u, k) channel and |S| x
  // |U| x dim repair tables, so these rows track the K-scaling cost
  // against the binary design_step/repair_throughput_soa rows above.
  {
    Rng mg_rng(0xbe9d);
    const otfair::sim::MultiGroupSimConfig mg_config =
        otfair::sim::MultiGroupSimConfig::Default(4, 2, dim);
    auto mg_research =
        otfair::sim::SimulateMultiGroupGaussian(n_research, mg_config, mg_rng);
    if (!mg_research.ok()) Die(mg_research.status().ToString());
    auto mg_archive = otfair::sim::SimulateMultiGroupGaussian(n_archive, mg_config, mg_rng);
    if (!mg_archive.ok()) Die(mg_archive.status().ToString());

    for (int t : thread_counts) {
      otfair::core::DesignOptions options;
      options.n_q = design_nq;
      options.threads = t;
      const double ms = BestWallMs(repeats, [&] {
        auto plans = otfair::core::DesignDistributionalRepair(*mg_research, options);
        if (!plans.ok()) Die(plans.status().ToString());
      });
      BenchCase c;
      c.name = "design_step_s4";
      c.threads = t;
      std::snprintf(params, sizeof(params),
                    "{\"dim\": %zu, \"n_research\": %zu, \"n_q\": %zu, \"s_levels\": 4}", dim,
                    n_research, design_nq);
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = ms;
      cases.push_back(c);
      std::fprintf(stderr, "design_step_s4    threads=%d  %10.2f ms\n", t, ms);
    }

    otfair::core::DesignOptions design_options;
    design_options.n_q = design_nq;
    auto plans = otfair::core::DesignDistributionalRepair(*mg_research, design_options);
    if (!plans.ok()) Die(plans.status().ToString());
    for (int t : thread_counts) {
      otfair::core::RepairOptions options;
      options.threads = t;
      auto repairer = otfair::core::OffSampleRepairer::Create(*plans, options);
      if (!repairer.ok()) Die(repairer.status().ToString());
      const double ms = BestWallMs(repeats, [&] {
        auto repaired = repairer->RepairDataset(*mg_archive);
        if (!repaired.ok()) Die(repaired.status().ToString());
      });
      BenchCase c;
      c.name = "repair_throughput_s4_soa";
      c.threads = t;
      std::snprintf(params, sizeof(params),
                    "{\"dim\": %zu, \"n_archive\": %zu, \"n_q\": %zu, \"s_levels\": 4}", dim,
                    n_archive, design_nq);
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = ms;
      c.rows_per_sec = static_cast<double>(n_archive) / (ms / 1e3);
      cases.push_back(c);
      std::fprintf(stderr, "%-24s threads=%d %8.2f ms  (%.0f rows/s)\n", c.name.c_str(), t, ms,
                   c.rows_per_sec);
    }
  }

  // --- serve_throughput / serve_p99_latency_us ----------------------------
  {
    otfair::core::DesignOptions design_options;
    design_options.n_q = design_nq;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design_options);
    if (!plans.ok()) Die(plans.status().ToString());
    const size_t rows = archive->size();
    for (int t : thread_counts) {
      otfair::serve::ServiceOptions service_options;
      service_options.threads = t;
      auto service = otfair::serve::RepairService::Create(*plans, service_options);
      if (!service.ok()) Die(service.status().ToString());
      // Checkpointing runs at its production default during the
      // measurement: the number reported is the throughput of the
      // crash-safe configuration, not an idealized one.
      char ckpt_template[] = "/tmp/otfair_bench_serve_ckpt.XXXXXX";
      const char* ckpt_dir = ::mkdtemp(ckpt_template);
      if (ckpt_dir == nullptr) Die("mkdtemp failed for serve bench");
      otfair::serve::CheckpointerOptions serve_ckpt_options;
      serve_ckpt_options.dir = ckpt_dir;
      auto serve_checkpointer = otfair::serve::Checkpointer::Create(
          service->get(), serve_ckpt_options);
      if (!serve_checkpointer.ok()) Die(serve_checkpointer.status().ToString());
      constexpr size_t kMaxBatch = 256;
      size_t responses = 0;
      otfair::serve::Batcher batcher(
          service->get(), kMaxBatch, [&](const otfair::serve::RowResponse& response) {
            if (response.status.ok()) ++responses;
          });
      // The replay workload: one session submitting every archive row as
      // a single-row request — the serving path the CLI's --replay mode
      // drives, micro-batching included.
      const double ms = BestWallMs(repeats, [&] {
        for (size_t i = 0; i < rows; ++i) {
          otfair::serve::RowRequest request;
          request.session_id = 0;
          request.row_index = i;
          request.u = archive->u(i);
          request.s = archive->s(i);
          const double* row = archive->features().row(i);
          request.features.assign(row, row + dim);
          batcher.Submit(std::move(request));
        }
        batcher.Flush();
      });
      // `responses` accumulates across repeats; every repeat must have
      // delivered every row.
      if (responses < rows * static_cast<size_t>(repeats)) Die("serve bench dropped rows");
      const auto metrics = (*service)->metrics().Snapshot();
      BenchCase c;
      c.name = "serve_throughput";
      c.threads = t;
      std::snprintf(params, sizeof(params),
                    "{\"dim\": %zu, \"n_archive\": %zu, \"n_q\": %zu, \"max_batch\": %zu}",
                    dim, n_archive, design_nq, kMaxBatch);
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = ms;
      c.rows_per_sec = static_cast<double>(rows) / (ms / 1e3);
      cases.push_back(c);
      std::fprintf(stderr, "serve_throughput  threads=%d  %10.2f ms  (%.0f rows/s)\n", t, ms,
                   c.rows_per_sec);
      if (t == 1) {
        c = BenchCase{};
        c.name = "serve_p99_latency_us";
        c.threads = 1;
        std::snprintf(params, sizeof(params),
                      "{\"dim\": %zu, \"n_archive\": %zu, \"n_q\": %zu, \"max_batch\": %zu}",
                      dim, n_archive, design_nq, kMaxBatch);
        c.params_json = params;
        c.repeats = repeats;
        c.wall_ms = ms;
        c.latency_p50_us = metrics.latency_p50_us;
        c.latency_p99_us = metrics.latency_p99_us;
        cases.push_back(c);
        std::fprintf(stderr, "serve_p99_latency threads=1  p50=%.0fus p99=%.0fus (%llu samples)\n",
                     metrics.latency_p50_us, metrics.latency_p99_us,
                     static_cast<unsigned long long>(metrics.latency_samples));
      }
      const uint64_t last_generation = (*serve_checkpointer)->generation();
      serve_checkpointer->reset();  // stop the background thread first
      for (uint64_t g = 1; g <= last_generation; ++g)
        ::remove(otfair::serve::CheckpointPath(ckpt_dir, g).c_str());
      ::remove(ckpt_dir);
    }
  }

  // --- serve_net_throughput / serve_net_p99_us -----------------------------
  // The epoll TCP front end measured end to end: an in-process Server plus
  // the library loadgen (one client thread per connection, window-bounded
  // pipelining), reporting client-observed rows/sec and round-trip p99 per
  // connection count. Server workers and client threads share this host's
  // cores, so on a small machine these rows price protocol + syscall
  // overhead under contention rather than multi-core scaling.
  {
    otfair::core::DesignOptions design_options;
    design_options.n_q = design_nq;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design_options);
    if (!plans.ok()) Die(plans.status().ToString());
    auto service = otfair::serve::RepairService::Create(*plans, {});
    if (!service.ok()) Die(service.status().ToString());
    otfair::net::ServerOptions server_options;
    server_options.net_threads = 2;
    server_options.max_batch = 256;
    auto server = otfair::net::Server::Create(service->get(), server_options);
    if (!server.ok()) Die(server.status().ToString());
    const std::vector<size_t> connection_counts =
        smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 16, 64, 256};
    const uint64_t total_rows = smoke ? 2000 : 100000;
    for (const size_t connections : connection_counts) {
      otfair::net::LoadgenOptions loadgen_options;
      loadgen_options.port = (*server)->port();
      loadgen_options.connections = connections;
      loadgen_options.rows_per_session =
          std::max<uint64_t>(1, total_rows / connections);
      loadgen_options.dim = dim;
      otfair::net::LoadgenResult best;
      for (int r = 0; r < repeats; ++r) {
        auto result = otfair::net::RunLoadgen(loadgen_options);
        if (!result.ok()) Die("serve_net bench: " + result.status().ToString());
        if (result->rows_ok + result->rows_err != result->rows_sent)
          Die("serve_net bench dropped rows");
        if (result->rows_err > 0)
          std::fprintf(stderr, "serve_net: %llu rows pushed back: %s\n",
                       static_cast<unsigned long long>(result->rows_err),
                       result->first_error.c_str());
        if (r == 0 || result->rows_per_sec > best.rows_per_sec) best = *result;
      }
      std::snprintf(params, sizeof(params),
                    "{\"connections\": %zu, \"rows_per_session\": %llu, \"dim\": %zu, "
                    "\"window\": %zu, \"net_threads\": %d}",
                    connections,
                    static_cast<unsigned long long>(loadgen_options.rows_per_session),
                    dim, loadgen_options.window, server_options.net_threads);
      BenchCase c;
      c.name = "serve_net_throughput";
      c.threads = server_options.net_threads;
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = best.seconds * 1e3;
      c.rows_per_sec = best.rows_per_sec;
      cases.push_back(c);
      std::fprintf(stderr, "serve_net_tput    conns=%-3zu  %10.2f ms  (%.0f rows/s)\n",
                   connections, c.wall_ms, c.rows_per_sec);
      c = BenchCase{};
      c.name = "serve_net_p99_us";
      c.threads = server_options.net_threads;
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = best.seconds * 1e3;
      c.latency_p50_us = best.p50_us;
      c.latency_p99_us = best.p99_us;
      cases.push_back(c);
      std::fprintf(stderr, "serve_net_p99     conns=%-3zu  p50=%.0fus p99=%.0fus\n",
                   connections, best.p50_us, best.p99_us);
    }
    (*server)->Shutdown();
  }

  // --- checkpoint_write_ms / recover_ms -----------------------------------
  // The crash-safety tax: how long one atomic checkpoint of a loaded
  // service takes (capture + serialize + write-temp + fsync + rename +
  // prune), and how long recovery takes end to end (scan dir, validate the
  // newest file, rebuild the service, fold the sketches back in).
  // Checkpointing runs on a background thread, so write cost bounds the
  // fsync pressure, not serve latency; recover cost is restart downtime.
  {
    otfair::core::DesignOptions design_options;
    design_options.n_q = design_nq;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design_options);
    if (!plans.ok()) Die(plans.status().ToString());
    otfair::serve::ServiceOptions service_options;
    auto service = otfair::serve::RepairService::Create(*plans, service_options);
    if (!service.ok()) Die(service.status().ToString());
    // Populate the sketches so the checkpoint carries a realistic
    // observed-state payload, not empty ones.
    otfair::serve::RowResponse response;
    for (size_t i = 0; i < archive->size(); ++i) {
      otfair::serve::RowRequest request;
      request.session_id = 0;
      request.row_index = i;
      request.u = archive->u(i);
      request.s = archive->s(i);
      const double* row = archive->features().row(i);
      request.features.assign(row, row + dim);
      if (!(*service)->RepairRow(request, &response).ok()) Die("checkpoint bench repair");
    }
    char dir_template[] = "/tmp/otfair_bench_ckpt.XXXXXX";
    const char* dir_cstr = ::mkdtemp(dir_template);
    if (dir_cstr == nullptr) Die("mkdtemp failed for checkpoint bench");
    const std::string dir = dir_cstr;
    otfair::serve::CheckpointerOptions ckpt_options;
    ckpt_options.dir = dir;
    ckpt_options.interval_ms = 3600 * 1000;  // only explicit WriteNow calls
    auto checkpointer = otfair::serve::Checkpointer::Create(service->get(), ckpt_options);
    if (!checkpointer.ok()) Die(checkpointer.status().ToString());
    const double write_ms = BestWallMs(repeats, [&] {
      if (!(*checkpointer)->WriteNow().ok()) Die("checkpoint write failed");
    });
    BenchCase c;
    c.name = "checkpoint_write_ms";
    std::snprintf(params, sizeof(params),
                  "{\"dim\": %zu, \"n_archive\": %zu, \"n_q\": %zu}", dim, n_archive,
                  design_nq);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = write_ms;
    cases.push_back(c);
    std::fprintf(stderr, "checkpoint_write   %10.3f ms\n", write_ms);

    const double recover_ms = BestWallMs(repeats, [&] {
      auto recovered = otfair::serve::RecoverNewestCheckpoint(dir);
      if (!recovered.ok()) Die("recover failed: " + recovered.status().ToString());
      otfair::serve::ServiceOptions recover_options = service_options;
      recover_options.seed = recovered->data.seed;
      recover_options.initial_plan_version = recovered->data.plan_version;
      auto revived =
          otfair::serve::RepairService::Create(recovered->data.plans, recover_options);
      if (!revived.ok()) Die("recover create failed");
      if (!(*revived)->RestoreObservedState(recovered->data.sketches).ok())
        Die("recover restore failed");
    });
    c = BenchCase{};
    c.name = "recover_ms";
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = recover_ms;
    cases.push_back(c);
    std::fprintf(stderr, "recover            %10.3f ms\n", recover_ms);
    // Leave no bench litter behind.
    for (int g = 1; g <= repeats + 1; ++g)
      ::remove(otfair::serve::CheckpointPath(dir, static_cast<uint64_t>(g)).c_str());
    ::remove(dir.c_str());
  }

  // --- sketch_update_ns: streaming sketch ingest in isolation --------------
  // The per-value cost the serve path pays for every valid value: one
  // QuantileSketch::Add per (u, s, k) observation (a table lookup for the
  // bucket key, no log).
  {
    Rng sketch_rng(0x5ce7);
    const size_t values = smoke ? 50000 : 5000000;
    std::vector<double> stream(values);
    for (double& v : stream) v = sketch_rng.Normal(0.0, 2.0);
    uint64_t sink = 0;
    const double ms = BestWallMs(repeats, [&] {
      otfair::stats::QuantileSketch sketch;
      for (double v : stream) sketch.Add(v);
      sink += sketch.count();
    });
    if (sink == 0) Die("sketch_update produced implausible sink");
    BenchCase c;
    c.name = "sketch_update_ns";
    c.threads = 1;
    std::snprintf(params, sizeof(params), "{\"values\": %zu, \"alpha\": %.3f}", values,
                  otfair::stats::QuantileSketch::kRelativeAccuracy);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = ms;
    c.ns_per_op = ms * 1e6 / static_cast<double>(values);
    cases.push_back(c);
    std::fprintf(stderr, "sketch_update_ns  threads=1  %10.2f ms  (%.1f ns/value)\n", ms,
                 c.ns_per_op);
  }

  // --- trace_overhead_disabled / trace_overhead_enabled --------------------
  // The span guard in isolation: a tight loop around OTFAIR_TRACE_SPAN.
  // Disabled (the serving default, and how every row above is measured)
  // must cost one relaxed load and a predicted branch — sub-ns, which is
  // the "tracing compiled in costs nothing" claim. Enabled pays two
  // steady-clock reads plus a wait-free ring push per span.
  {
    const size_t spans = smoke ? 100000 : 10000000;
    auto spin = [&](size_t n) {
      uint64_t acc = 0;
      for (size_t i = 0; i < n; ++i) {
        OTFAIR_TRACE_SPAN("bench_overhead");
        acc += i;
      }
      return acc;
    };
    auto& collector = otfair::obs::TraceCollector::Global();
    for (const bool enabled : {false, true}) {
      if (enabled)
        collector.Enable();
      else
        collector.Disable();
      volatile uint64_t sink = 0;
      const double ms = BestWallMs(repeats, [&] { sink = sink + spin(spans); });
      collector.Disable();
      collector.ResetForTest();  // discard the pushed spans, free the rings
      BenchCase c;
      c.name = enabled ? "trace_overhead_enabled" : "trace_overhead_disabled";
      c.threads = 1;
      std::snprintf(params, sizeof(params), "{\"spans\": %zu}", spans);
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = ms;
      c.ns_per_op = ms * 1e6 / static_cast<double>(spans);
      cases.push_back(c);
      std::fprintf(stderr, "%-24s threads=1 %8.2f ms  (%.2f ns/span)\n", c.name.c_str(),
                   ms, c.ns_per_op);
    }
  }

  // --- redesign_to_reload_ms: one self-heal episode's critical path --------
  // A drift-tripped service (shifted replay filled the channel sketches),
  // then exactly what the background loop runs per attempt: sketch
  // snapshot -> one Quantiles sweep per channel (512 pseudo-samples) ->
  // DesignFromChannelSamples -> validation (one Cdfs sweep per channel)
  // -> hot ReloadPlan. A successful reload restarts the sketches, so each
  // repeat rebuilds the service and re-streams the shifted rows untimed.
  {
    otfair::core::DesignOptions design_options;
    design_options.n_q = design_nq;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design_options);
    if (!plans.ok()) Die(plans.status().ToString());
    const double shift = 2.0;
    const size_t heal_rows = std::min<size_t>(n_archive, smoke ? 2000 : 20000);
    std::vector<otfair::serve::RowRequest> requests(heal_rows);
    for (size_t i = 0; i < heal_rows; ++i) {
      otfair::serve::RowRequest& request = requests[i];
      request.session_id = 0;
      request.row_index = i;
      request.u = archive->u(i);
      request.s = archive->s(i);
      const double* row = archive->features().row(i);
      request.features.resize(dim);
      for (size_t k = 0; k < dim; ++k) request.features[k] = row[k] + shift;
    }
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      auto service = otfair::serve::RepairService::Create(*plans);
      if (!service.ok()) Die(service.status().ToString());
      otfair::serve::RedesignerOptions heal_options;
      heal_options.poll_interval_ms = 1000000;  // inert loop; timed call is manual
      auto redesigner = otfair::serve::Redesigner::Create(service->get(), heal_options);
      if (!redesigner.ok()) Die(redesigner.status().ToString());
      std::vector<otfair::serve::RowResponse> responses;
      (*service)->RepairBatch(requests.data(), requests.size(), &responses);
      for (const auto& response : responses)
        if (!response.status.ok()) Die("redesign bench dropped a row");
      if (!(*service)->Health().drifted) Die("redesign bench: drift did not trip");
      Timer timer;
      const auto status = (*redesigner)->AttemptRedesign();
      const double ms = timer.ElapsedMillis();
      if (!status.ok()) Die("redesign bench: " + status.ToString());
      if ((*service)->plan_version() != 2) Die("redesign bench: reload did not land");
      (*redesigner)->Stop();
      if (r == 0 || ms < best) best = ms;
    }
    BenchCase c;
    c.name = "redesign_to_reload_ms";
    c.threads = 1;
    std::snprintf(params, sizeof(params),
                  "{\"dim\": %zu, \"rows\": %zu, \"n_q\": %zu, \"shift\": %.1f}", dim,
                  heal_rows, design_nq, shift);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = best;
    cases.push_back(c);
    std::fprintf(stderr, "redesign_to_reload threads=1 %10.2f ms\n", best);
  }

  // --- table_build / plan_memory: CSR repair tables ------------------------
  {
    otfair::common::parallel::SetThreadCount(1);
    otfair::core::DesignOptions design_options;
    design_options.n_q = design_nq;
    design_options.threads = 1;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design_options);
    if (!plans.ok()) Die(plans.status().ToString());
    const size_t plan_count = 4 * dim;  // (u, s) x k

    // The live path: OffSampleRepairer::Create = plan validation (serial)
    // + alias tables (one channel per task over the thread lanes), both
    // O(nnz) over the CSR rows. Each repeat moves in a plan-set copy made
    // before timing, as `otfair repair` moves in its loaded plan, and the
    // repairers are destroyed after timing.
    BenchCase c;
    for (int t : thread_counts) {
      otfair::core::RepairOptions repair_options;
      repair_options.threads = t;
      std::vector<otfair::core::RepairPlanSet> copies(static_cast<size_t>(repeats), *plans);
      std::vector<otfair::core::OffSampleRepairer> repairers;
      repairers.reserve(copies.size());
      const double sparse_ms = BestWallMs(repeats, [&] {
        repairers.push_back(OrDie(otfair::core::OffSampleRepairer::Create(
            std::move(copies[repairers.size()]), repair_options)));
      });
      c = BenchCase{};
      c.name = "table_build";
      c.threads = t;
      std::snprintf(params, sizeof(params),
                    "{\"dim\": %zu, \"n_q\": %zu, \"solver\": \"monotone\"}", dim, design_nq);
      c.params_json = params;
      c.repeats = repeats;
      c.wall_ms = sparse_ms;
      cases.push_back(c);
      std::fprintf(stderr, "table_build       threads=%d  %10.2f ms\n", t, sparse_ms);
    }

    // plan_memory: resident bytes of the CSR arrays per channel plan
    // against the dense n_Q x n_Q footprint the plans used to occupy.
    size_t nnz_total = 0;
    size_t sparse_bytes_total = 0;
    for (int u = 0; u <= 1; ++u) {
      for (int s = 0; s <= 1; ++s) {
        for (size_t k = 0; k < dim; ++k) {
          const auto& pi = plans->At(u, k).plan[static_cast<size_t>(s)];
          nnz_total += pi.nnz();
          sparse_bytes_total += pi.MemoryBytes();
        }
      }
    }
    c = BenchCase{};
    c.name = "plan_memory";
    c.threads = 1;
    std::snprintf(params, sizeof(params),
                  "{\"dim\": %zu, \"n_q\": %zu, \"solver\": \"monotone\", \"plans\": %zu}", dim,
                  design_nq, plan_count);
    c.params_json = params;
    c.repeats = 1;
    c.nnz_per_plan = static_cast<double>(nnz_total) / static_cast<double>(plan_count);
    c.sparse_bytes_per_plan =
        static_cast<double>(sparse_bytes_total) / static_cast<double>(plan_count);
    c.dense_bytes_per_plan = static_cast<double>(design_nq * design_nq * sizeof(double));
    cases.push_back(c);
    std::fprintf(stderr,
                 "plan_memory       threads=1  %10.0f nnz/plan  (%.1f KiB CSR vs %.1f KiB "
                 "dense, %.0fx smaller)\n",
                 c.nnz_per_plan, c.sparse_bytes_per_plan / 1024.0,
                 c.dense_bytes_per_plan / 1024.0,
                 c.sparse_bytes_per_plan > 0.0 ? c.dense_bytes_per_plan / c.sparse_bytes_per_plan
                                               : 0.0);
    otfair::common::parallel::SetThreadCount(0);
  }

  // --- sinkhorn_log: single-thread entropic solve --------------------------
  {
    otfair::common::parallel::SetThreadCount(1);
    const OtProblem p = RandomOtProblem(sinkhorn_n, 0x51f0);
    otfair::ot::SinkhornOptions options;
    options.epsilon = 0.05;
    options.tolerance = 1e-6;
    options.max_iterations = 300;
    size_t iterations = 0;
    const double ms = BestWallMs(repeats, [&] {
      auto result = otfair::ot::SolveSinkhorn(p.a, p.b, p.cost, options);
      if (!result.ok()) Die(result.status().ToString());
      iterations = result->iterations;
    });
    BenchCase c;
    c.name = "sinkhorn_log";
    c.threads = 1;
    std::snprintf(params, sizeof(params),
                  "{\"n\": %zu, \"epsilon\": 0.05, \"tolerance\": 1e-6, "
                  "\"max_iterations\": %zu}",
                  sinkhorn_n, options.max_iterations);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = ms;
    c.iterations = iterations;
    c.ms_per_iter = iterations > 0 ? ms / static_cast<double>(iterations) : 0.0;
    cases.push_back(c);
    std::fprintf(stderr, "%-17s threads=1  %10.2f ms  (%zu iters, %.4f ms/iter)\n",
                 c.name.c_str(), ms, iterations, c.ms_per_iter);
    otfair::common::parallel::SetThreadCount(0);
  }

  // --- lse_reduction: the fused log-sum-exp kernel in isolation ------------
  // One sinkhorn_n-length LseDiff per "iteration": exactly the inner loop
  // of a log-domain Sinkhorn row update. The accumulator sink keeps the
  // call observable so the optimizer cannot drop it.
  {
    Rng lse_rng(0x15e0);
    std::vector<double> other(sinkhorn_n);
    std::vector<double> cost_row(sinkhorn_n);
    for (double& v : other) v = lse_rng.Uniform(-2.0, 2.0);
    for (double& v : cost_row) v = lse_rng.Uniform(0.0, 4.0);
    const size_t iters = smoke ? 2000 : 200000;
    double sink = 0.0;
    const double ms = BestWallMs(repeats, [&] {
      for (size_t i = 0; i < iters; ++i)
        sink += otfair::common::simd::LseDiff(other.data(), cost_row.data(), sinkhorn_n);
    });
    if (!std::isfinite(sink)) Die("lse_reduction produced non-finite sink");
    BenchCase c;
    c.name = "lse_reduction";
    c.threads = 1;
    std::snprintf(params, sizeof(params), "{\"n\": %zu, \"calls\": %zu}", sinkhorn_n, iters);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = ms;
    c.iterations = iters;
    c.ms_per_iter = ms / static_cast<double>(iters);
    cases.push_back(c);
    std::fprintf(stderr, "lse_reduction     threads=1  %10.2f ms  (%zu calls, %.5f ms/call)\n",
                 ms, iters, c.ms_per_iter);
  }

  // --- alias_lookup_batch: arena draws in isolation ------------------------
  // A repair-shaped arena (design_nq rows, narrow CSR-like support) drawn
  // from one scalar draw at a time, as the scalar transport entry does;
  // rows_per_sec is draws/sec. Row indices are precomputed so the timed
  // loop is lookup plus RNG only.
  {
    Rng build_rng(0xa11a);
    otfair::stats::AliasArena arena;
    const size_t support = 8;  // typical CSR row width from monotone plans
    arena.Reserve(design_nq, design_nq * support);
    std::vector<double> w(support);
    std::vector<uint32_t> c_ids(support);
    for (size_t q = 0; q < design_nq; ++q) {
      for (size_t i = 0; i < support; ++i) {
        w[i] = build_rng.Uniform(0.01, 1.0);
        c_ids[i] = static_cast<uint32_t>((q + i) % design_nq);
      }
      if (auto status = arena.AppendRow(w.data(), c_ids.data(), support); !status.ok())
        Die(status.ToString());
    }
    const size_t draws = smoke ? 20000 : 2000000;
    std::vector<uint32_t> row_ids(draws);
    for (uint32_t& r : row_ids)
      r = static_cast<uint32_t>(build_rng.UniformInt(design_nq));
    uint64_t sink = 0;
    const double ms = BestWallMs(repeats, [&] {
      Rng draw_rng(0xd4a3);
      for (size_t t = 0; t < draws; ++t) sink += arena.SampleCol(row_ids[t], draw_rng);
    });
    if (sink == 0) Die("alias_lookup_batch produced implausible sink");
    BenchCase c;
    c.name = "alias_lookup_batch";
    c.threads = 1;
    std::snprintf(params, sizeof(params),
                  "{\"rows\": %zu, \"support\": %zu, \"draws\": %zu}", design_nq, support,
                  draws);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = ms;
    c.rows_per_sec = static_cast<double>(draws) / (ms / 1e3);
    cases.push_back(c);
    std::fprintf(stderr, "alias_lookup_batch threads=1 %10.2f ms  (%.0f draws/s)\n", ms,
                 c.rows_per_sec);
  }

  // --- exact solver --------------------------------------------------------
  {
    otfair::common::parallel::SetThreadCount(1);
    const OtProblem p = RandomOtProblem(exact_n, 0xe8ac);
    const double ms = BestWallMs(repeats, [&] {
      auto plan = otfair::ot::SolveExact(p.a, p.b, p.cost);
      if (!plan.ok()) Die(plan.status().ToString());
    });
    BenchCase c;
    c.name = "exact_solver";
    c.threads = 1;
    std::snprintf(params, sizeof(params), "{\"n\": %zu}", exact_n);
    c.params_json = params;
    c.repeats = repeats;
    c.wall_ms = ms;
    cases.push_back(c);
    std::fprintf(stderr, "exact_solver      threads=1  %10.2f ms\n", ms);
    otfair::common::parallel::SetThreadCount(0);
  }

  // --- JSON out ------------------------------------------------------------
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) Die("cannot open " + out_path);
  std::fprintf(out, "{\n  \"schema\": \"otfair-bench-v1\",\n");
  std::fprintf(out, "  \"meta\": {\"hardware_threads\": %zu, \"smoke\": %s, \"simd_isa\": \"%s\"},\n",
               static_cast<size_t>(otfair::common::parallel::DefaultThreadCount()),
               smoke ? "true" : "false", otfair::common::simd::ActiveIsa());
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < cases.size(); ++i) {
    const BenchCase& c = cases[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"threads\": %d, \"params\": %s, "
                 "\"repeats\": %d, \"wall_ms\": %.3f",
                 c.name.c_str(), c.threads, c.params_json.c_str(), c.repeats, c.wall_ms);
    if (c.rows_per_sec > 0.0) std::fprintf(out, ", \"rows_per_sec\": %.0f", c.rows_per_sec);
    if (c.iterations > 0)
      std::fprintf(out, ", \"iterations\": %zu, \"ms_per_iter\": %.5f", c.iterations,
                   c.ms_per_iter);
    if (c.nnz_per_plan > 0.0)
      std::fprintf(out,
                   ", \"nnz_per_plan\": %.1f, \"sparse_bytes_per_plan\": %.0f, "
                   "\"dense_bytes_per_plan\": %.0f",
                   c.nnz_per_plan, c.sparse_bytes_per_plan, c.dense_bytes_per_plan);
    if (c.latency_p99_us > 0.0)
      std::fprintf(out, ", \"latency_p50_us\": %.1f, \"latency_p99_us\": %.1f",
                   c.latency_p50_us, c.latency_p99_us);
    if (c.ns_per_op > 0.0) std::fprintf(out, ", \"ns_per_op\": %.2f", c.ns_per_op);
    if (!c.stages_ms.empty()) {
      std::fprintf(out, ", \"stages_ms\": {");
      for (size_t s = 0; s < c.stages_ms.size(); ++s)
        std::fprintf(out, "%s\"%s\": %.3f", s > 0 ? ", " : "", c.stages_ms[s].first.c_str(),
                     c.stages_ms[s].second);
      std::fprintf(out, "}");
    }
    std::fprintf(out, "}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
