// otfair — command-line front end for the repair pipeline.
//
// Subcommands:
//   design    fit a repair plan on a labelled research CSV and save it
//   repair    apply a saved plan to an archive CSV (hard, estimated or
//             Monge-map modes)
//   serve     long-lived serving loop: micro-batched repairs over a
//             newline protocol on stdin/stdout, plan hot-swap, drift
//             health (plus a --replay self-driving load mode)
//   inspect   print a plan artifact's structure and a CSV's fairness
//             report (--json for machine-readable output)
//   drift     compare an archive CSV against a plan's design
//             distribution (--json for machine-readable output)
//   simulate  draw a synthetic labelled dataset (the paper's Gaussian
//             mixture) — fixtures for scripts, smoke tests and demos
//
// `otfair <command> --help` prints the command's flags. Unknown commands
// and missing required flags exit 2; operational failures exit 1; drift
// detection exits 3.
//
// CSV layout: header `s,u[,y],<feature names...>`, binary labels.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/designer.h"
#include "core/drift.h"
#include "core/label_estimator.h"
#include "core/pipeline.h"
#include "core/quantile_repair.h"
#include "core/repairer.h"
#include "data/csv.h"
#include "fairness/report.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "obs/trace.h"
#include "ot/solver.h"
#include "serve/batcher.h"
#include "serve/checkpointer.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/redesigner.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"
#include "stats/quantile_sketch.h"

namespace {

using otfair::common::FlagParser;
using otfair::common::JsonWriter;
using otfair::common::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Set (to the signal number) by SIGTERM/SIGINT during `serve`; both serve
/// modes poll it and drain: stop accepting, flush in-flight rows, write a
/// final checkpoint, exit 0.
volatile std::sig_atomic_t g_drain_signal = 0;

void HandleDrainSignal(int sig) { g_drain_signal = sig; }

/// Installs the drain handlers WITHOUT SA_RESTART: the stdio loop blocks
/// in read(2), which must come back with EINTR for the drain to start
/// promptly instead of waiting for the next input line.
void InstallDrainHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleDrainSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

/// Resolves the shared `--threads` flag: absent -> 0 (process default,
/// i.e. OTFAIR_THREADS or hardware concurrency); present but < 1 -> error.
/// On success the value is also installed as the process-wide default so
/// every parallel region (including solver internals) honours it.
otfair::common::Result<int> ResolveThreadsFlag(const FlagParser& flags) {
  if (!flags.Has("threads")) return 0;
  const int threads = flags.GetInt("threads", 0);
  if (threads < 1)
    return Status::InvalidArgument("--threads must be >= 1 (got " +
                                   std::to_string(threads) + ")");
  otfair::common::parallel::SetThreadCount(static_cast<size_t>(threads));
  return threads;
}

std::string SolverNames() {
  std::string solvers;
  for (const std::string& name : otfair::ot::SolverNames()) {
    if (!solvers.empty()) solvers += "|";
    solvers += name;
  }
  return solvers;
}

// --- per-command usage blocks ----------------------------------------------

void PrintDesignUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair design --research=R.csv --plan=P.bin [flags]\n"
               "  Fits Algorithm 1 repair plans on a labelled research CSV. The\n"
               "  attribute cardinalities |S|/|U| come from the data (any K-valued\n"
               "  categorical levels 0..K-1); one plan per (u, s, feature) channel.\n"
               "    --research=R.csv   labelled research data (required)\n"
               "    --plan=P.bin       output plan artifact (required)\n"
               "    --n_q=50           support grid resolution\n"
               "    --target_t=0.5     barycentre position t in [0, 1] (binary |S|)\n"
               "    --lambdas=l0,l1,.. barycentric weights, one per s level\n"
               "                       (default: {1-t, t} binary, uniform otherwise)\n"
               "    --solver=%s   OT backend\n"
               "    --epsilon=0.05     Sinkhorn regularization\n"
               "    --threads=N        worker threads\n"
               "    --trace=F.json     write a Chrome trace of the design run\n"
               "                       (per-channel solves, per-Sinkhorn-iteration\n"
               "                       spans; load in Perfetto / chrome://tracing)\n",
               SolverNames().c_str());
}

void PrintRepairUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair repair --plan=P.bin --input=A.csv --output=O.csv [flags]\n"
               "  Applies a saved plan to an archive CSV (Algorithm 2).\n"
               "    --mode=stochastic|mean|quantile   transport mode\n"
               "    --strength=1.0     partial-repair strength in [0, 1]\n"
               "    --seed=N           RNG seed (stochastic mode)\n"
               "    --estimate_labels  estimate archive s-labels (needs --research)\n"
               "    --research=R.csv   research data for label estimation\n"
               "    --threads=N        worker threads (stochastic/mean; quantile is serial)\n");
}

void PrintServeUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair serve --plan=P.bin [flags]\n"
               "  Long-lived repair server. Default mode speaks a newline protocol on\n"
               "  stdin/stdout:\n"
               "    repair <session> <row> <u> <s> <x_1..x_d>   -> ok <session> <row> <y...>\n"
               "    metrics | health                            -> one-line JSON\n"
               "    metrics --prom     -> Prometheus text exposition (\"# EOF\"-terminated)\n"
               "    reload <plan_path>                          -> ok reload <version>\n"
               "    checkpoint                                  -> ok checkpoint <generation>\n"
               "    quit\n"
               "  Flags:\n"
               "    --seed=N           base repair seed (session 0 = offline batch seed)\n"
               "    --mode=stochastic|mean\n"
               "    --strength=1.0     partial-repair strength\n"
               "    --threads=N        worker threads a self-heal redesign designs on\n"
               "                       (every batch repairs on its serving thread)\n"
               "    --max_batch=256    rows coalesced per micro-batch\n"
               "    --w1_threshold=0.10 --oor_threshold=0.05  drift thresholds\n"
               "  Replay mode (self-driving load, no sockets):\n"
               "    --replay=A.csv     archive to replay\n"
               "    --sessions=N       concurrent replay sessions\n"
               "  Network mode (TCP, mutually exclusive with --replay):\n"
               "    --listen=PORT      serve the same line protocol over TCP (0 binds\n"
               "                       an ephemeral port, reported on stderr)\n"
               "    --listen-host=IP   IPv4 bind address (default 127.0.0.1)\n"
               "    --net-threads=N    epoll worker threads; each owns a SO_REUSEPORT\n"
               "                       listener and a micro-batcher, and a connection\n"
               "                       lives its whole life on the worker that\n"
               "                       accepted it (session affinity)\n"
               "    --max-conns=4096   connection cap (excess accepts are answered\n"
               "                       with one UNAVAILABLE error line and closed)\n"
               "    --port-file=F      write the bound port to F (for scripts/CI)\n"
               "  Self-healing (drift -> sketch-based redesign -> hot reload):\n"
               "    --self-heal        enable the background redesigner\n"
               "    --heal_poll_ms=200 --heal_cooldown_ms=5000 --heal_retries=3\n"
               "    --heal_backoff_ms=250 --heal_backoff_max_ms=5000\n"
               "    --heal_timeout_ms=30000   per-redesign deadline\n"
               "    --heal_min_channel=32     post-drift values per channel needed\n"
               "    --heal_fresh_wait_ms=2000 wait for post-drift values before\n"
               "                       falling back to the live sketches\n"
               "    --heal_drain_ms=20000     replay: settle wait before exit\n"
               "    --faults=SPEC      fault injection (also OTFAIR_FAULTS env);\n"
               "                       name[:count] list, see README\n"
               "  Crash safety (checkpoint / recover / drain):\n"
               "    --checkpoint_dir=D        write periodic atomic checkpoints into D\n"
               "    --checkpoint_interval_ms=1000  background checkpoint cadence\n"
               "    --checkpoint_keep=3       generations retained (recovery window)\n"
               "    --recover          start from the newest intact checkpoint in\n"
               "                       --checkpoint_dir (plan, version, channel\n"
               "                       sketches; seed/mode/strength come from the\n"
               "                       checkpoint — the bit-identity contract), falling\n"
               "                       back generation-by-generation past corrupt files\n"
               "                       and cold-starting from --plan when none is intact\n"
               "  Observability (tracing compiled in, zero-cost while disabled):\n"
               "    --trace=F.json     collect spans (admission, batch flush, repair,\n"
               "                       reload, checkpoint, redesign episodes); Chrome\n"
               "                       trace JSON written at exit, loads in Perfetto\n"
               "    --prom-dump=F.txt  periodically write the Prometheus text\n"
               "                       exposition to F (atomic rename; final write at\n"
               "                       exit)\n"
               "    --prom-interval-ms=1000  dump cadence\n"
               "  SIGTERM/SIGINT drain gracefully: stop accepting input, flush\n"
               "  in-flight rows, write a final checkpoint, exit 0.\n"
               "  Replay prints metrics and health JSON lines, then exits 0 when\n"
               "  healthy or degraded-but-serving (see the health \"state\" field),\n"
               "  3 when drifted with self-heal disabled or unresolved, 1 on any\n"
               "  dropped/failed row.\n");
}

void PrintLoadgenUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair loadgen --port=P [flags]\n"
               "  TCP load generator for `otfair serve --listen`: N connections\n"
               "  pipeline deterministic repair rows and record client-observed\n"
               "  latency. Exits 0 only when every submitted row came back ok\n"
               "  (zero drops, zero error lines); per-row errors exit 1.\n"
               "    --port=P           server port (required)\n"
               "    --host=127.0.0.1   server address\n"
               "    --connections=1    concurrent client connections\n"
               "    --sessions=N       total sessions, spread over the connections\n"
               "                       (session s rides connection s %% N; default\n"
               "                       one session per connection)\n"
               "    --rows=1000        rows per session (row indices 0..R-1)\n"
               "    --dim=2            features per row (must match the served plan)\n"
               "    --u-levels=2 --s-levels=2  group-label ranges\n"
               "    --window=64        max outstanding rows per connection\n"
               "    --seed=1           synthetic feature stream seed\n"
               "    --timeout_ms=30000 per-connection inactivity bound\n"
               "    --json=F.json      write the result summary as one-line JSON\n"
               "    --csv=F.csv        append the result as a CSV row (header\n"
               "                       written when the file is new)\n"
               "    --verb=V           control mode: send one verb (e.g. health,\n"
               "                       \"metrics --prom\") and print the response\n");
}

void PrintInspectUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair inspect --plan=P.bin | --data=D.csv | --checkpoint=C [--json]\n"
               "  Prints a plan artifact's structure, a CSV's fairness report, or a\n"
               "  serve checkpoint's contents (after full header/CRC/payload\n"
               "  validation — a corrupt file fails with the rejection reason).\n"
               "  JSON output includes \"simd_isa\" (the vector instruction set the\n"
               "  process dispatched to: avx2|scalar), \"trace_available\"\n"
               "  (whether --trace span collection is compiled in),\n"
               "  \"net_available\"/\"net_listen\" (TCP serving support and its\n"
               "  default listen config), and \"metric_names\" (every metric the\n"
               "  serve registry exports).\n"
               "    --json   one-line machine-readable JSON on stdout\n");
}

void PrintDriftUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair drift --plan=P.bin --input=A.csv [--json]\n"
               "  Compares an archive against the plan's design distribution.\n"
               "  Exits 0 when stationary, 3 when drift is detected.\n"
               "    --json   one-line machine-readable JSON on stdout\n");
}

void PrintSimulateUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair simulate --out=D.csv --rows=N [flags]\n"
               "  Draws a labelled dataset from the paper's Gaussian mixture.\n"
               "    --seed=1      RNG seed\n"
               "    --dim=2       feature count (2 = the paper's config)\n"
               "    --shift=0.0   added to every component mean (creates drift)\n"
               "    --shift-at=F  apply --shift only from row floor(F*N) on (F in\n"
               "                  (0, 1)): a mid-stream distribution shift for\n"
               "                  self-heal simulations; rows before the cut are\n"
               "                  bit-identical to an unshifted run\n"
               "    --s-levels=2  protected-attribute levels |S| (2 = the paper's\n"
               "                  binary config, bit-identical to earlier releases)\n"
               "    --u-levels=2  unprotected-attribute levels |U|\n");
}

/// The top-level usage block; `out` distinguishes requested help (stdout,
/// exit 0) from invocation errors (stderr, exit 2).
void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: otfair <command> [flags]\n"
               "commands:\n"
               "  design    fit repair plans on a research CSV -> plan artifact\n"
               "  repair    apply a plan artifact to an archive CSV\n"
               "  serve     long-lived repair server (stdin/stdout protocol, --replay,\n"
               "            or TCP via --listen)\n"
               "  loadgen   TCP load generator for serve --listen (latency histogram,\n"
               "            CSV/JSON output)\n"
               "  inspect   show a plan artifact or a CSV fairness report\n"
               "  drift     check an archive against the design distribution\n"
               "  simulate  generate a synthetic labelled CSV\n"
               "global flags:\n"
               "  --no-simd   force the scalar kernels (same as OTFAIR_NO_SIMD=1);\n"
               "              output is bit-identical for repair either way\n"
               "run `otfair <command> --help` for the command's flags\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

/// True when the command asked for its own help; prints it to stdout.
bool WantsHelp(const FlagParser& flags, void (*print)(std::FILE*)) {
  if (!flags.GetBool("help", false)) return false;
  print(stdout);
  return true;
}

/// Resolves `--trace=FILE` and, when present, turns span collection on
/// before the traced work starts. Returns the output path ("" = tracing
/// off); the caller writes the file with WriteTraceFile once the traced
/// work has finished.
std::string MaybeEnableTrace(const FlagParser& flags) {
  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) otfair::obs::TraceCollector::Global().Enable();
  return trace_path;
}

/// Drains every thread ring and writes the Chrome trace-event JSON
/// (Perfetto-loadable). A write failure is a warning, not a run failure:
/// the traced work itself already succeeded.
void WriteTraceFile(const std::string& trace_path) {
  if (trace_path.empty()) return;
  auto& collector = otfair::obs::TraceCollector::Global();
  collector.Disable();
  const size_t spans = collector.Drain().size();
  if (Status status = collector.WriteChromeTrace(trace_path); !status.ok()) {
    std::fprintf(stderr, "warning: trace write failed: %s\n", status.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "trace: %zu spans (%llu dropped) -> %s\n", spans,
               static_cast<unsigned long long>(collector.dropped_total()),
               trace_path.c_str());
}

// --- design ----------------------------------------------------------------

int RunDesign(const FlagParser& flags) {
  if (WantsHelp(flags, PrintDesignUsage)) return 0;
  const std::string research_path = flags.GetString("research", "");
  const std::string plan_path = flags.GetString("plan", "");
  if (research_path.empty() || plan_path.empty()) {
    PrintDesignUsage(stderr);
    return 2;
  }
  auto research = otfair::data::ReadCsv(research_path);
  if (!research.ok()) return Fail(research.status());

  // The OT backend is created by name (ot::MakeSolver) and carried in
  // PipelineOptions, so every built-in solver is reachable from here.
  otfair::core::PipelineOptions options;
  options.design.n_q = static_cast<size_t>(flags.GetInt("n_q", 50));
  options.design.target_t = flags.GetDouble("target_t", 0.5);
  if (flags.Has("lambdas")) {
    // Comma-separated barycentric weights, one per s level; validated
    // against the data's |S| inside the designer.
    for (const std::string& cell :
         otfair::common::Split(flags.GetString("lambdas", ""), ',')) {
      char* end = nullptr;
      const std::string trimmed(otfair::common::Trim(cell));
      const double value = std::strtod(trimmed.c_str(), &end);
      if (trimmed.empty() || end == trimmed.c_str() || *end != '\0')
        return Fail(Status::InvalidArgument("--lambdas must be a comma-separated list of "
                                            "numbers (got '" +
                                            trimmed + "')"));
      options.design.lambdas.push_back(value);
    }
  }
  auto threads = ResolveThreadsFlag(flags);
  if (!threads.ok()) return Fail(threads.status());
  options.design.threads = *threads;
  const std::string solver_name = flags.GetString("solver", "monotone");
  otfair::ot::SolverOptions solver_options;
  solver_options.sinkhorn.epsilon = flags.GetDouble("epsilon", 0.05);
  auto solver = otfair::ot::MakeSolver(solver_name, solver_options);
  if (!solver.ok()) return Fail(solver.status());
  options.design.solver = std::move(*solver);

  const std::string trace_path = MaybeEnableTrace(flags);
  auto plans = otfair::core::DesignDistributionalRepair(*research, options.design);
  WriteTraceFile(trace_path);
  if (!plans.ok()) return Fail(plans.status());
  // Fail now, not at repair time: approximate backends can produce plans
  // whose marginals are too sloppy for the loader's 1e-5 check.
  if (Status status = plans->Validate(1e-5); !status.ok())
    return Fail(Status::FailedPrecondition(
        "designed plans fail validation (" + status.message() +
        "); with --solver=sinkhorn, try a larger --epsilon"));
  if (Status status = plans->SaveToFile(plan_path); !status.ok()) return Fail(status);
  std::printf(
      "designed %zu channels (|U|=%zu, |S|=%zu, n_Q=%zu, t=%.2f, solver=%s) from %zu "
      "research rows -> %s\n",
      plans->u_levels() * plans->dim(), plans->u_levels(), plans->s_levels(),
      options.design.n_q, options.design.target_t,
      options.design.solver->name().c_str(), research->size(), plan_path.c_str());
  return 0;
}

// --- repair ----------------------------------------------------------------

int RunRepair(const FlagParser& flags) {
  if (WantsHelp(flags, PrintRepairUsage)) return 0;
  const std::string plan_path = flags.GetString("plan", "");
  const std::string input_path = flags.GetString("input", "");
  const std::string output_path = flags.GetString("output", "");
  if (plan_path.empty() || input_path.empty() || output_path.empty()) {
    PrintRepairUsage(stderr);
    return 2;
  }
  auto plans = otfair::core::RepairPlanSet::LoadFromFile(plan_path);
  if (!plans.ok()) return Fail(plans.status());
  auto archive = otfair::data::ReadCsv(input_path);
  if (!archive.ok()) return Fail(archive.status());

  // Optional s-label estimation from a research CSV.
  std::vector<int> labels = archive->s_labels();
  if (flags.GetBool("estimate_labels", false)) {
    const std::string research_path = flags.GetString("research", "");
    if (research_path.empty()) {
      std::fprintf(stderr, "--estimate_labels requires --research\n");
      return 2;
    }
    auto research = otfair::data::ReadCsv(research_path);
    if (!research.ok()) return Fail(research.status());
    auto estimator = otfair::core::LabelEstimator::Fit(*research);
    if (!estimator.ok()) return Fail(estimator.status());
    auto estimated = estimator->EstimateS(*archive);
    if (!estimated.ok()) return Fail(estimated.status());
    labels = std::move(*estimated);
    std::printf("estimated archive s-labels from %s\n", research_path.c_str());
  }

  const std::string mode = flags.GetString("mode", "stochastic");
  const double strength = flags.GetDouble("strength", 1.0);
  auto threads = ResolveThreadsFlag(flags);
  if (!threads.ok()) return Fail(threads.status());
  otfair::common::Result<otfair::data::Dataset> repaired(
      Status::Internal("unreachable"));
  if (mode == "quantile") {
    if (*threads > 0)
      std::fprintf(stderr, "note: quantile repair is serial; --threads has no effect\n");
    auto repairer = otfair::core::QuantileMapRepairer::Create(std::move(*plans), strength);
    if (!repairer.ok()) return Fail(repairer.status());
    repaired = repairer->RepairDatasetWithLabels(*archive, labels);
  } else if (mode == "stochastic" || mode == "mean") {
    otfair::core::RepairOptions options;
    options.seed = flags.GetUint64("seed", 0x07fa12u);
    options.strength = strength;
    options.threads = *threads;
    options.mode = mode == "mean" ? otfair::core::TransportMode::kConditionalMean
                                  : otfair::core::TransportMode::kStochastic;
    auto repairer = otfair::core::OffSampleRepairer::Create(std::move(*plans), options);
    if (!repairer.ok()) return Fail(repairer.status());
    repaired = repairer->RepairDatasetWithLabels(*archive, labels);
  } else {
    std::fprintf(stderr, "unknown --mode=%s\n", mode.c_str());
    return 2;
  }
  if (!repaired.ok()) return Fail(repaired.status());
  if (Status status = otfair::data::WriteCsv(*repaired, output_path); !status.ok())
    return Fail(status);
  std::printf("repaired %zu rows (%s mode, strength %.2f) -> %s\n", repaired->size(),
              mode.c_str(), strength, output_path.c_str());
  return 0;
}

// --- serve -----------------------------------------------------------------

/// Builds the service + batcher options shared by both serve modes.
otfair::common::Result<otfair::serve::ServiceOptions> ServeServiceOptions(
    const FlagParser& flags) {
  otfair::serve::ServiceOptions options;
  options.seed = flags.GetUint64("seed", 0x07fa12u);
  options.strength = flags.GetDouble("strength", 1.0);
  const std::string mode = flags.GetString("mode", "stochastic");
  if (mode == "mean") {
    options.mode = otfair::core::TransportMode::kConditionalMean;
  } else if (mode == "stochastic") {
    options.mode = otfair::core::TransportMode::kStochastic;
  } else {
    return Status::InvalidArgument("serve supports --mode=stochastic|mean (got " + mode + ")");
  }
  // --threads sizes the process pool a self-heal redesign designs on;
  // batches repair on their serving threads (ServiceOptions::threads = 1).
  if (auto threads = ResolveThreadsFlag(flags); !threads.ok()) return threads.status();
  options.drift.w1_threshold = flags.GetDouble("w1_threshold", options.drift.w1_threshold);
  options.drift.out_of_range_threshold =
      flags.GetDouble("oor_threshold", options.drift.out_of_range_threshold);
  options.faults = flags.GetString("faults", "");
  return options;
}

/// Builds the self-heal knobs from flags (used when --self-heal is set).
otfair::serve::RedesignerOptions ServeRedesignerOptions(const FlagParser& flags) {
  otfair::serve::RedesignerOptions options;
  options.poll_interval_ms = flags.GetInt("heal_poll_ms", options.poll_interval_ms);
  options.cooldown_ms = flags.GetInt("heal_cooldown_ms", options.cooldown_ms);
  options.max_retries = flags.GetInt("heal_retries", options.max_retries);
  options.backoff_initial_ms = flags.GetInt("heal_backoff_ms", options.backoff_initial_ms);
  options.backoff_max_ms = flags.GetInt("heal_backoff_max_ms", options.backoff_max_ms);
  options.redesign_timeout_ms = flags.GetInt("heal_timeout_ms", options.redesign_timeout_ms);
  options.min_channel_count =
      flags.GetUint64("heal_min_channel", options.min_channel_count);
  options.fresh_sketch_wait_ms =
      flags.GetInt("heal_fresh_wait_ms", options.fresh_sketch_wait_ms);
  return options;
}

otfair::common::Result<size_t> ServeMaxBatch(const FlagParser& flags) {
  const int max_batch = flags.GetInt("max_batch", 256);
  if (max_batch < 1) return Status::InvalidArgument("--max_batch must be >= 1");
  return static_cast<size_t>(max_batch);
}

/// Every serve mode ends with this write, so the next --recover resumes
/// from the last row served, not the last background tick. A failure is a
/// warning: every accepted row was already answered.
void WriteFinalCheckpoint(otfair::serve::Checkpointer* checkpointer) {
  if (checkpointer == nullptr) return;
  if (Status status = checkpointer->WriteNow(); !status.ok())
    std::fprintf(stderr, "warning: final checkpoint failed: %s\n", status.ToString().c_str());
}

/// The stdio and TCP drain epilogue, run once the front end has stopped
/// accepting and answered what it accepted: the final checkpoint, then the
/// drain report when a signal (not `quit` or EOF) ended the loop. Exits 0.
int FinishDrain(otfair::serve::Checkpointer* checkpointer) {
  WriteFinalCheckpoint(checkpointer);
  if (g_drain_signal != 0)
    std::fprintf(stderr, "drained on signal %d (final checkpoint generation %llu)\n",
                 static_cast<int>(g_drain_signal),
                 checkpointer != nullptr
                     ? static_cast<unsigned long long>(checkpointer->generation())
                     : 0ULL);
  return 0;
}

/// Self-driving load mode: N concurrent sessions replay an archive CSV,
/// each through a batcher of its own over the shared service, then
/// metrics/health are printed as JSON lines. This is how serving
/// throughput is measured in CI without sockets.
int RunServeReplay(otfair::serve::RepairService& service, size_t max_batch,
                   const otfair::data::Dataset& archive, size_t sessions,
                   otfair::serve::Redesigner* redesigner, int heal_drain_ms,
                   otfair::serve::Checkpointer* checkpointer) {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> failures{0};
  const auto sink = [&](const otfair::serve::RowResponse& response) {
    responses.fetch_add(1, std::memory_order_relaxed);
    if (!response.status.ok()) failures.fetch_add(1, std::memory_order_relaxed);
  };

  const size_t dim = archive.dim();
  otfair::common::Timer timer;
  std::vector<std::thread> workers;
  workers.reserve(sessions);
  for (size_t session = 0; session < sessions; ++session) {
    workers.emplace_back([&, session] {
      otfair::serve::Batcher batcher(&service, max_batch, sink);
      for (size_t i = 0; i < archive.size(); ++i) {
        // Drain: stop submitting; rows already submitted still complete.
        if (g_drain_signal != 0) break;
        otfair::serve::RowRequest request;
        request.session_id = session;
        request.row_index = i;
        request.u = archive.u(i);
        request.s = archive.s(i);
        const double* row = archive.features().row(i);
        request.features.assign(row, row + dim);
        batcher.Submit(std::move(request));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
      batcher.Flush();
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = timer.ElapsedSeconds();
  const bool drained = g_drain_signal != 0;

  // With self-heal on, let the redesigner settle before judging health:
  // drift that tripped near the end of the replay may still be mid-episode
  // (redesign in flight or backing off). The wait is bounded — a stream
  // whose sketches never ripened stays drifted and exits 3 below. A drain
  // skips the wait: the operator asked for a prompt exit.
  if (redesigner != nullptr && !drained) {
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(heal_drain_ms);
    while (std::chrono::steady_clock::now() < drain_deadline) {
      const auto verdict = service.Health();
      if (!redesigner->busy() && (!verdict.drifted || verdict.degraded)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  WriteFinalCheckpoint(checkpointer);

  // Under a drain only the rows actually submitted are owed responses.
  const uint64_t expected =
      drained ? submitted.load() : static_cast<uint64_t>(sessions) * archive.size();
  const auto metrics = service.metrics().Snapshot();
  const auto health = service.Health();
  std::printf("%s\n%s\n", metrics.ToJson().c_str(), health.ToJson().c_str());
  std::fprintf(stderr,
               "replayed %llu rows over %zu sessions in %.2fs (%.0f rows/s)  "
               "p50=%.0fus p99=%.0fus  %s%s\n",
               static_cast<unsigned long long>(responses.load()), sessions, seconds,
               seconds > 0 ? static_cast<double>(responses.load()) / seconds : 0.0,
               metrics.latency_p50_us, metrics.latency_p99_us, health.state(),
               drained ? "  (drained on signal)" : "");
  if (responses.load() != expected || failures.load() > 0) {
    std::fprintf(stderr, "error: %llu/%llu responses, %llu failures\n",
                 static_cast<unsigned long long>(responses.load()),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(failures.load()));
    return 1;
  }
  // A clean drain exits 0: every accepted row was answered and the final
  // checkpoint landed (or its failure was logged); the process was asked
  // to stop, so the drift verdict is advisory here.
  if (drained) return 0;
  // Degraded means self-heal gave up but every row was served on the old
  // snapshot — that is the graceful-degradation contract, exit 0 (the
  // health JSON above carries "state":"degraded" for operators). Exit 3 is
  // reserved for drift with no self-heal resolution.
  if (health.degraded) return 0;
  return health.drifted ? 3 : 0;
}

/// Interactive mode: the newline protocol on stdin/stdout, served on the
/// calling thread. Each read(2) is answered in full — every complete line
/// handled, the batcher flushed, stdout flushed once — before the loop
/// blocks on stdin again, so a lone row is answered while stdin stays
/// open. Trailing CRs are trimmed, empty lines skipped, and an
/// unterminated last line is still served at EOF. A SIGTERM/SIGINT
/// interrupts the read (the handlers install without SA_RESTART) and
/// drains: the loop exits, pending rows flush, and a final checkpoint is
/// written before the clean exit-0 return.
int RunServeStdio(otfair::serve::RepairService& service, size_t max_batch,
                  const otfair::serve::CheckpointHook& checkpoint,
                  otfair::serve::Checkpointer* checkpointer) {
  auto respond = [](const std::string& line) {
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
  };
  otfair::serve::Batcher batcher(&service, max_batch,
                                 [&](const otfair::serve::RowResponse& response) {
                                   respond(otfair::serve::FormatRowResponse(response));
                                 });
  // Answers one request line; false on `quit`.
  auto serve_line = [&](const std::string& line) {
    otfair::serve::RowResponse refused;
    auto request = otfair::serve::ParseRequestLine(line, service.dim(), service.u_levels(),
                                                   service.s_levels(), &refused);
    if (!request.ok()) {
      respond(refused.status.ok() ? otfair::serve::FormatErrorLine(request.status())
                                  : otfair::serve::FormatRowResponse(refused));
      return true;
    }
    using otfair::serve::RequestKind;
    if (request->kind == RequestKind::kQuit) return false;
    if (request->kind == RequestKind::kRepair) {
      batcher.Submit(std::move(request->row));
      return true;
    }
    respond(otfair::serve::AnswerControlRequest(*request, service, batcher, checkpoint));
    return true;
  };

  std::string pending;  // read but not yet served: at most one partial line
  std::string line;
  char buf[1 << 16];
  bool eof = false;
  bool quit = false;
  while (!eof && !quit && g_drain_signal == 0) {
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;  // a drain signal ends the loop
    if (n > 0) {
      pending.append(buf, static_cast<size_t>(n));
    } else {
      eof = true;  // or a read error: either way, serve what was read
      if (!pending.empty()) pending += '\n';
    }
    size_t start = 0;
    size_t nl = 0;
    while (!quit && g_drain_signal == 0 &&
           (nl = pending.find('\n', start)) != std::string::npos) {
      line.assign(pending, start, nl - start);
      start = nl + 1;
      while (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) quit = !serve_line(line);
    }
    pending.erase(0, start);
    batcher.Flush();
    std::fflush(stdout);
  }
  // Drain (signal or quit/EOF): stop reading, finish what was read, then
  // persist the post-flush state so --recover resumes exactly here.
  batcher.Flush();
  return FinishDrain(checkpointer);
}

/// Network mode: the same protocol and drain semantics as stdio, served
/// over TCP by `net::Server`. The main thread just parks until a drain
/// signal; the workers own all socket I/O.
int RunServeNet(otfair::serve::RepairService& service, const FlagParser& flags,
                size_t max_batch, const otfair::serve::CheckpointHook& checkpoint,
                otfair::serve::Checkpointer* checkpointer) {
  otfair::net::ServerOptions options;
  const int listen_port = flags.GetInt("listen", 0);
  if (listen_port < 0 || listen_port > 65535)
    return Fail(Status::InvalidArgument("--listen must be a port in [0, 65535]"));
  options.port = static_cast<uint16_t>(listen_port);
  options.host = flags.GetString("listen-host", "127.0.0.1");
  const int net_threads = flags.GetInt("net-threads", 1);
  if (net_threads < 1) return Fail(Status::InvalidArgument("--net-threads must be >= 1"));
  options.net_threads = net_threads;
  const int max_conns = flags.GetInt("max-conns", 4096);
  if (max_conns < 1) return Fail(Status::InvalidArgument("--max-conns must be >= 1"));
  options.max_connections = static_cast<size_t>(max_conns);
  options.max_batch = max_batch;
  otfair::net::ServerHooks hooks;
  hooks.checkpoint = checkpoint;
  auto server = otfair::net::Server::Create(&service, options, std::move(hooks));
  if (!server.ok()) return Fail(server.status());
  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    if (Status status = otfair::common::AtomicWriteFile(
            port_file, std::to_string((*server)->port()) + "\n");
        !status.ok())
      return Fail(status);
  }
  std::fprintf(stderr, "listening on %s:%u (%d net threads, %zu max connections)\n",
               options.host.c_str(), (*server)->port(), options.net_threads,
               options.max_connections);
  while (g_drain_signal == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Graceful network drain: stop accepting, flush in-flight connections,
  // write the final checkpoint, exit 0 — the stdio drain contract
  // extended to sockets.
  (*server)->Shutdown();
  return FinishDrain(checkpointer);
}

/// Builds the service from the newest intact checkpoint. The checkpoint's
/// repair semantics (seed/mode/strength) override any flags
/// — they bind the bit-identity contract pre-crash sessions were served
/// under — with a stderr warning when a flag would have disagreed. Returns
/// kNotFound (checkpoint directory empty/corrupt-through) for the caller
/// to cold-start; recovery never refuses to serve.
otfair::common::Result<std::unique_ptr<otfair::serve::RepairService>> RecoverService(
    const FlagParser& flags, const std::string& checkpoint_dir,
    const otfair::serve::ServiceOptions& flag_options, uint64_t* recovered_generation) {
  auto recovered = otfair::serve::RecoverNewestCheckpoint(checkpoint_dir);
  if (!recovered.ok()) return recovered.status();
  for (const std::string& note : recovered->skipped)
    std::fprintf(stderr, "warning: skipped corrupt checkpoint: %s\n", note.c_str());
  otfair::serve::CheckpointData& data = recovered->data;

  otfair::serve::ServiceOptions options = flag_options;
  auto warn_override = [&](const char* flag, bool differs) {
    if (flags.Has(flag) && differs)
      std::fprintf(stderr,
                   "warning: --%s overridden by the recovered checkpoint (repair "
                   "semantics are fixed by the pre-crash service)\n",
                   flag);
  };
  warn_override("seed", options.seed != data.seed);
  warn_override("mode", static_cast<uint32_t>(options.mode) != data.mode);
  warn_override("strength", options.strength != data.strength);
  options.seed = data.seed;
  options.mode = static_cast<otfair::core::TransportMode>(data.mode);
  options.strength = data.strength;
  options.initial_plan_version = data.plan_version;

  auto service = otfair::serve::RepairService::Create(std::move(data.plans), options);
  if (!service.ok()) return service.status();
  // Observed state is best-effort: a restore failure costs drift history,
  // not availability (fresh sketches are the cold-start behaviour).
  if (Status status = (*service)->RestoreObservedState(data.sketches); !status.ok())
    std::fprintf(stderr,
                 "warning: checkpoint observed-state restore failed (%s); "
                 "continuing with fresh sketches\n",
                 status.ToString().c_str());
  (*service)->SetDegraded(data.degraded);
  (*service)->MarkRecovered(data.generation);
  *recovered_generation = data.generation;
  std::fprintf(stderr,
               "recovered checkpoint generation %llu from %s (plan version %llu%s%s)\n",
               static_cast<unsigned long long>(data.generation), recovered->path.c_str(),
               static_cast<unsigned long long>(data.plan_version),
               data.degraded ? ", degraded" : "",
               data.episode_open ? ", drift episode was open" : "");
  return service;
}

int RunServe(const FlagParser& flags) {
  if (WantsHelp(flags, PrintServeUsage)) return 0;
  // One mode per process: --replay drives itself, --listen serves clients.
  if (flags.Has("listen") && flags.Has("replay")) {
    std::fprintf(stderr, "error: --listen and --replay are mutually exclusive\n\n");
    PrintServeUsage(stderr);
    return 2;
  }
  const std::string plan_path = flags.GetString("plan", "");
  const std::string checkpoint_dir = flags.GetString("checkpoint_dir", "");
  const bool recover = flags.GetBool("recover", false);
  if (recover && checkpoint_dir.empty())
    return Fail(Status::InvalidArgument("--recover requires --checkpoint_dir"));
  const std::string prom_dump = flags.GetString("prom-dump", "");
  const int prom_interval_ms = flags.GetInt("prom-interval-ms", 1000);
  if (!prom_dump.empty() && prom_interval_ms < 1)
    return Fail(Status::InvalidArgument("--prom-interval-ms must be >= 1"));
  // Tracing turns on before the service exists so recovery and plan-load
  // spans land in the file too.
  const std::string trace_path = MaybeEnableTrace(flags);
  // --plan is optional under --recover (the checkpoint embeds the plan),
  // but without either there is nothing to serve.
  if (plan_path.empty() && !recover) {
    PrintServeUsage(stderr);
    return 2;
  }
  auto service_options = ServeServiceOptions(flags);
  if (!service_options.ok()) return Fail(service_options.status());
  auto max_batch = ServeMaxBatch(flags);
  if (!max_batch.ok()) return Fail(max_batch.status());

  std::unique_ptr<otfair::serve::RepairService> service;
  uint64_t recovered_generation = 0;
  if (recover) {
    auto recovered =
        RecoverService(flags, checkpoint_dir, *service_options, &recovered_generation);
    if (recovered.ok()) {
      service = std::move(*recovered);
    } else if (recovered.status().code() == otfair::common::StatusCode::kNotFound) {
      if (plan_path.empty())
        return Fail(Status::NotFound(
            "no intact checkpoint in " + checkpoint_dir +
            " and no --plan to cold-start from (" + recovered.status().message() + ")"));
      std::fprintf(stderr, "warning: %s; cold-starting from %s\n",
                   recovered.status().message().c_str(), plan_path.c_str());
    } else {
      return Fail(recovered.status());
    }
  }
  if (!service) {
    auto plans = otfair::core::RepairPlanSet::LoadFromFile(plan_path);
    if (!plans.ok()) return Fail(plans.status());
    auto created = otfair::serve::RepairService::Create(std::move(*plans), *service_options);
    if (!created.ok()) return Fail(created.status());
    service = std::move(*created);
  }

  // Replay inputs are read and checked before any background thread
  // (self-heal, checkpoint, Prometheus dump) starts, so a bad archive or
  // session count fails with exit 1 instead of leaving a thread behind.
  const std::string replay_path = flags.GetString("replay", "");
  std::optional<otfair::data::Dataset> replay_archive;
  const int sessions = flags.GetInt("sessions", 1);
  if (!replay_path.empty()) {
    auto archive = otfair::data::ReadCsv(replay_path);
    if (!archive.ok()) return Fail(archive.status());
    if (archive->dim() != service->dim())
      return Fail(Status::InvalidArgument("replay archive/plan dimensionality mismatch"));
    if (sessions < 1) return Fail(Status::InvalidArgument("--sessions must be >= 1"));
    replay_archive = std::move(*archive);
  }

  // The self-heal loop runs identically under both modes; it only talks to
  // the service. Held here so it outlives whichever mode runs and stops
  // (thread join) before the service dies. After a crash mid-episode the
  // restored sketches still trip the drift verdict, so the loop re-opens
  // the episode on its own — no episode state needs replaying.
  std::unique_ptr<otfair::serve::Redesigner> redesigner;
  if (flags.GetBool("self-heal", false)) {
    auto created =
        otfair::serve::Redesigner::Create(service.get(), ServeRedesignerOptions(flags));
    if (!created.ok()) return Fail(created.status());
    redesigner = std::move(*created);
  }

  // The checkpoint loop starts after recovery so its write counter seeds
  // past every pre-crash generation (new files sort strictly newer).
  std::unique_ptr<otfair::serve::Checkpointer> checkpointer;
  if (!checkpoint_dir.empty()) {
    otfair::serve::CheckpointerOptions checkpoint_options;
    checkpoint_options.dir = checkpoint_dir;
    checkpoint_options.interval_ms =
        flags.GetInt("checkpoint_interval_ms", checkpoint_options.interval_ms);
    checkpoint_options.keep = flags.GetInt("checkpoint_keep", checkpoint_options.keep);
    auto created = otfair::serve::Checkpointer::Create(
        service.get(), checkpoint_options, redesigner.get(), recovered_generation);
    if (!created.ok()) return Fail(created.status());
    checkpointer = std::move(*created);
  }
  // The `checkpoint` verb's hook, one for the stdio and TCP front ends.
  otfair::serve::CheckpointHook checkpoint_hook;
  if (checkpointer) {
    checkpoint_hook = [raw = checkpointer.get()]() -> otfair::common::Result<uint64_t> {
      if (Status status = raw->WriteNow(); !status.ok()) return status;
      return raw->generation();
    };
  }

  // Periodic Prometheus dump: a helper thread renders the full registry
  // (facade counters plus the service/checkpointer/redesigner gauges) and
  // atomically replaces the file, so a scraper reading F never sees a torn
  // exposition. The 50 ms stop-poll keeps shutdown prompt regardless of
  // the dump interval; a final dump lands after the loops stop.
  std::atomic<bool> prom_stop{false};
  std::thread prom_thread;
  if (!prom_dump.empty()) {
    otfair::serve::RepairService* service_ptr = service.get();
    prom_thread = std::thread([service_ptr, &prom_stop, prom_dump, prom_interval_ms] {
      auto next =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(prom_interval_ms);
      while (!prom_stop.load(std::memory_order_relaxed)) {
        if (std::chrono::steady_clock::now() >= next) {
          if (Status status = otfair::common::AtomicWriteFile(
                  prom_dump, service_ptr->metrics().RenderPrometheus());
              !status.ok())
            std::fprintf(stderr, "warning: prom dump failed: %s\n",
                         status.ToString().c_str());
          next = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(prom_interval_ms);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }

  InstallDrainHandlers();

  int ret = 0;
  if (replay_archive) {
    ret = RunServeReplay(*service, *max_batch, *replay_archive,
                         static_cast<size_t>(sessions), redesigner.get(),
                         flags.GetInt("heal_drain_ms", 20000), checkpointer.get());
  } else if (flags.Has("listen")) {
    ret = RunServeNet(*service, flags, *max_batch, checkpoint_hook, checkpointer.get());
  } else {
    ret = RunServeStdio(*service, *max_batch, checkpoint_hook, checkpointer.get());
  }
  // Stop order mirrors dependency order: the checkpoint loop reads the
  // service and redesigner, so it stops first (the modes already wrote
  // their final checkpoint synchronously).
  if (checkpointer) checkpointer->Stop();
  if (redesigner) redesigner->Stop();
  if (prom_thread.joinable()) {
    prom_stop.store(true, std::memory_order_relaxed);
    prom_thread.join();
    // Final dump after the loops stop: the file reflects the end state
    // (final checkpoint generation, settled redesign counters).
    if (Status status = otfair::common::AtomicWriteFile(
            prom_dump, service->metrics().RenderPrometheus());
        !status.ok())
      std::fprintf(stderr, "warning: final prom dump failed: %s\n",
                   status.ToString().c_str());
  }
  WriteTraceFile(trace_path);
  return ret;
}

// --- loadgen ---------------------------------------------------------------

int RunLoadgenCmd(const FlagParser& flags) {
  if (WantsHelp(flags, PrintLoadgenUsage)) return 0;
  if (!flags.Has("port")) {
    PrintLoadgenUsage(stderr);
    return 2;
  }
  const int port = flags.GetInt("port", 0);
  if (port < 1 || port > 65535)
    return Fail(Status::InvalidArgument("--port must be in [1, 65535]"));
  const std::string host = flags.GetString("host", "127.0.0.1");

  // Control mode: one verb, print the response, done.
  const std::string verb = flags.GetString("verb", "");
  if (!verb.empty()) {
    auto response = otfair::net::SendVerb(host, static_cast<uint16_t>(port), verb,
                                          flags.GetInt("timeout_ms", 30000));
    if (!response.ok()) return Fail(response.status());
    std::fputs(response->c_str(), stdout);
    return 0;
  }

  otfair::net::LoadgenOptions options;
  options.host = host;
  options.port = static_cast<uint16_t>(port);
  const int connections = flags.GetInt("connections", 1);
  const int sessions = flags.GetInt("sessions", 0);
  const int dim = flags.GetInt("dim", 2);
  const int window = flags.GetInt("window", 64);
  if (connections < 1 || sessions < 0 || dim < 1 || window < 1)
    return Fail(Status::InvalidArgument(
        "--connections/--dim/--window must be >= 1 and --sessions >= 0"));
  options.connections = static_cast<size_t>(connections);
  options.sessions = static_cast<size_t>(sessions);
  options.rows_per_session = flags.GetUint64("rows", 1000);
  options.dim = static_cast<size_t>(dim);
  options.u_levels = flags.GetInt("u-levels", 2);
  options.s_levels = flags.GetInt("s-levels", 2);
  options.window = static_cast<size_t>(window);
  options.seed = flags.GetUint64("seed", 1);
  options.timeout_ms = flags.GetInt("timeout_ms", 30000);

  auto result = otfair::net::RunLoadgen(options);
  if (!result.ok()) return Fail(result.status());

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    if (Status status = otfair::common::AtomicWriteFile(json_path, result->ToJson() + "\n");
        !status.ok())
      return Fail(status);
  }
  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    const bool fresh = ::access(csv_path.c_str(), F_OK) != 0;
    std::FILE* f = std::fopen(csv_path.c_str(), "a");
    if (f == nullptr) return Fail(Status::IoError("cannot open " + csv_path));
    if (fresh) std::fprintf(f, "%s\n", otfair::net::LoadgenResult::CsvHeader().c_str());
    std::fprintf(f, "%s\n", result->CsvRow().c_str());
    std::fclose(f);
  }
  std::printf(
      "loadgen: %llu/%llu rows ok over %zu connections (%zu sessions) in %.2fs  "
      "%.0f rows/s  p50=%.0fus p90=%.0fus p99=%.0fus max=%.0fus\n",
      static_cast<unsigned long long>(result->rows_ok),
      static_cast<unsigned long long>(result->rows_sent), options.connections,
      options.sessions == 0 ? options.connections : options.sessions, result->seconds,
      result->rows_per_sec, result->p50_us, result->p90_us, result->p99_us,
      result->max_us);
  if (!result->clean()) {
    std::fprintf(stderr, "error: %llu error rows (first: %s)\n",
                 static_cast<unsigned long long>(result->rows_err),
                 result->first_error.c_str());
    return 1;
  }
  return 0;
}

// --- inspect ---------------------------------------------------------------

int RunInspect(const FlagParser& flags) {
  if (WantsHelp(flags, PrintInspectUsage)) return 0;
  const std::string plan_path = flags.GetString("plan", "");
  const std::string data_path = flags.GetString("data", "");
  const std::string checkpoint_path = flags.GetString("checkpoint", "");
  const bool json = flags.GetBool("json", false);
  // Observability introspection: whether --trace span collection is
  // compiled into this binary, and every metric name the serve registry
  // exports. A scratch Metrics instance supplies the facade's name set
  // (component gauges register per live service, so they are not listed
  // here).
  auto write_obs_keys = [](JsonWriter& w) {
    otfair::serve::Metrics scratch;
    // Networked serving is compiled in unconditionally; "net_listen"
    // reports the defaults `serve --listen` starts from.
    const otfair::net::ServerOptions net_defaults;
    w.Key("trace_available").Bool(true)
        .Key("net_available").Bool(true)
        .Key("net_listen").BeginObject()
        .Key("host").String(net_defaults.host)
        .Key("net_threads").Int(net_defaults.net_threads)
        .Key("max_connections").Uint(net_defaults.max_connections)
        .Key("backlog").Int(net_defaults.backlog)
        .Key("line_cap_bytes").Uint(otfair::serve::kMaxRequestLineBytes)
        .EndObject();
    w.Key("metric_names").BeginArray();
    for (const std::string& name : scratch.registry().Names()) w.String(name);
    w.EndArray();
  };
  if (!checkpoint_path.empty()) {
    auto data = otfair::serve::LoadCheckpointFile(checkpoint_path);
    if (!data.ok()) return Fail(data.status());
    uint64_t sketch_rows = 0;
    for (const auto& sketch : data->sketches) sketch_rows += sketch.count();
    const char* mode = data->mode == 1 ? "mean" : "stochastic";
    if (json) {
      JsonWriter w;
      w.BeginObject()
          .Key("kind").String("checkpoint")
          .Key("path").String(checkpoint_path)
          .Key("generation").Uint(data->generation)
          .Key("plan_version").Uint(data->plan_version)
          .Key("degraded").Bool(data->degraded)
          .Key("episode_open").Bool(data->episode_open)
          .Key("seed").Uint(data->seed)
          .Key("mode").String(mode)
          .Key("strength").Double(data->strength)
          .Key("sketches").Uint(data->sketches.size())
          .Key("sketch_rows").Uint(sketch_rows)
          .Key("dim").Uint(data->plans.dim())
          .Key("s_levels").Uint(data->plans.s_levels())
          .Key("u_levels").Uint(data->plans.u_levels())
          .EndObject();
      std::printf("%s\n", w.str().c_str());
      return 0;
    }
    std::printf(
        "checkpoint %s\n"
        "  generation %llu, plan version %llu%s%s\n"
        "  repair semantics: seed=%llu mode=%s strength=%.3f\n"
        "  plan: dim=%zu |S|=%zu |U|=%zu\n"
        "  observed state: %zu sketches (%llu values)\n",
        checkpoint_path.c_str(), static_cast<unsigned long long>(data->generation),
        static_cast<unsigned long long>(data->plan_version),
        data->degraded ? ", degraded" : "", data->episode_open ? ", episode open" : "",
        static_cast<unsigned long long>(data->seed), mode, data->strength, data->plans.dim(),
        data->plans.s_levels(), data->plans.u_levels(), data->sketches.size(),
        static_cast<unsigned long long>(sketch_rows));
    return 0;
  }
  if (!plan_path.empty()) {
    auto plans = otfair::core::RepairPlanSet::LoadFromFile(plan_path);
    if (!plans.ok()) return Fail(plans.status());
    const size_t s_levels = plans->s_levels();
    const size_t u_levels = plans->u_levels();
    // Per-channel nnz/bytes sum over all |S| plans of the channel.
    auto channel_nnz = [&](const otfair::core::ChannelPlan& channel) {
      size_t nnz = 0;
      for (size_t s = 0; s < s_levels; ++s) nnz += channel.plan[s].nnz();
      return nnz;
    };
    auto channel_bytes = [&](const otfair::core::ChannelPlan& channel) {
      size_t bytes = 0;
      for (size_t s = 0; s < s_levels; ++s) bytes += channel.plan[s].MemoryBytes();
      return bytes;
    };
    if (json) {
      JsonWriter w;
      w.BeginObject()
          .Key("kind").String("plan")
          .Key("path").String(plan_path)
          .Key("simd_isa").String(otfair::common::simd::ActiveIsa());
      write_obs_keys(w);
      w.Key("dim").Uint(plans->dim())
          .Key("target_t").Double(plans->target_t())
          .Key("s_levels").Uint(s_levels)
          .Key("u_levels").Uint(u_levels)
          .Key("lambdas").BeginArray();
      for (const double l : plans->lambdas()) w.Double(l);
      w.EndArray().Key("features").BeginArray();
      for (const std::string& name : plans->feature_names()) w.String(name);
      w.EndArray().Key("channels").BeginArray();
      for (size_t u = 0; u < u_levels; ++u) {
        for (size_t k = 0; k < plans->dim(); ++k) {
          const auto& channel = plans->At(static_cast<int>(u), k);
          const size_t nq = channel.grid.size();
          w.BeginObject()
              .Key("u").Int(static_cast<int>(u))
              .Key("k").Uint(k)
              .Key("feature").String(plans->feature_names()[k])
              .Key("n_q").Uint(nq)
              .Key("lo").Double(channel.grid.lo())
              .Key("hi").Double(channel.grid.hi())
              .Key("nnz").Uint(channel_nnz(channel))
              .Key("csr_bytes").Uint(channel_bytes(channel))
              .Key("dense_bytes").Uint(s_levels * nq * nq * sizeof(double))
              .EndObject();
        }
      }
      w.EndArray().EndObject();
      std::printf("%s\n", w.str().c_str());
      return 0;
    }
    std::printf("plan artifact %s\n  features (%zu):", plan_path.c_str(), plans->dim());
    for (const std::string& name : plans->feature_names()) std::printf(" %s", name.c_str());
    std::printf("\n  groups: |U|=%zu x |S|=%zu", u_levels, s_levels);
    std::printf("\n  barycentre position t = %.3f, lambdas =", plans->target_t());
    for (const double l : plans->lambdas()) std::printf(" %.3f", l);
    std::printf("\n");
    for (size_t u = 0; u < u_levels; ++u) {
      for (size_t k = 0; k < plans->dim(); ++k) {
        const auto& channel = plans->At(static_cast<int>(u), k);
        const size_t nq = channel.grid.size();
        const size_t nnz = channel_nnz(channel);
        const size_t bytes = channel_bytes(channel);
        std::printf(
            "  channel (u=%zu, %s): n_Q=%zu, range [%.4g, %.4g], "
            "plans nnz=%zu (%.1f KiB CSR vs %.1f KiB dense)\n",
            u, plans->feature_names()[k].c_str(), nq, channel.grid.lo(), channel.grid.hi(),
            nnz, static_cast<double>(bytes) / 1024.0,
            static_cast<double>(s_levels * nq * nq * sizeof(double)) / 1024.0);
      }
    }
    return 0;
  }
  if (!data_path.empty()) {
    auto dataset = otfair::data::ReadCsv(data_path);
    if (!dataset.ok()) return Fail(dataset.status());
    auto report = otfair::fairness::MakeFairnessReport(*dataset);
    if (!report.ok()) return Fail(report.status());
    if (json) {
      JsonWriter w;
      w.BeginObject()
          .Key("kind").String("data")
          .Key("path").String(data_path)
          .Key("simd_isa").String(otfair::common::simd::ActiveIsa());
      write_obs_keys(w);
      w.Key("rows").Uint(report->rows)
          .Key("s_levels").Uint(report->s_levels)
          .Key("u_levels").Uint(report->u_levels)
          .Key("features").BeginArray();
      for (const std::string& name : report->feature_names) w.String(name);
      w.EndArray().Key("e_per_feature").BeginArray();
      for (const double e : report->e_per_feature) w.Double(e);
      w.EndArray()
          .Key("e_aggregate").Double(report->e_aggregate)
          .Key("pr_u1").Double(report->pr_u1)
          .Key("pr_s1_given_u0").Double(report->pr_s1_given_u0)
          .Key("pr_s1_given_u1").Double(report->pr_s1_given_u1)
          .EndObject();
      std::printf("%s\n", w.str().c_str());
      return 0;
    }
    std::printf("%s\n%s", data_path.c_str(), report->ToString().c_str());
    return 0;
  }
  PrintInspectUsage(stderr);
  return 2;
}

// --- drift -----------------------------------------------------------------

int RunDrift(const FlagParser& flags) {
  if (WantsHelp(flags, PrintDriftUsage)) return 0;
  const std::string plan_path = flags.GetString("plan", "");
  const std::string input_path = flags.GetString("input", "");
  if (plan_path.empty() || input_path.empty()) {
    PrintDriftUsage(stderr);
    return 2;
  }
  auto plans = otfair::core::RepairPlanSet::LoadFromFile(plan_path);
  if (!plans.ok()) return Fail(plans.status());
  auto archive = otfair::data::ReadCsv(input_path);
  if (!archive.ok()) return Fail(archive.status());
  if (archive->dim() != plans->dim())
    return Fail(Status::InvalidArgument("archive/plan dimensionality mismatch"));
  // Archives carry arbitrary categorical labels; reject actual label
  // values outside the plan's level grid (declared-but-unobserved archive
  // levels are fine — only values matter).
  for (size_t i = 0; i < archive->size(); ++i) {
    if (static_cast<size_t>(archive->s(i)) >= plans->s_levels() ||
        static_cast<size_t>(archive->u(i)) >= plans->u_levels())
      return Fail(Status::InvalidArgument(
          "archive row " + std::to_string(i) + " has (u=" + std::to_string(archive->u(i)) +
          ", s=" + std::to_string(archive->s(i)) + ") but the plan was designed for |U|=" +
          std::to_string(plans->u_levels()) + ", |S|=" + std::to_string(plans->s_levels())));
  }
  // One sketch per (u, s, k) channel, fed every value, judged as serving
  // judges its live stream.
  std::vector<otfair::stats::QuantileSketch> sketches(plans->u_levels() * plans->s_levels() *
                                                      plans->dim());
  for (size_t i = 0; i < archive->size(); ++i) {
    const size_t base = (static_cast<size_t>(archive->u(i)) * plans->s_levels() +
                         static_cast<size_t>(archive->s(i))) *
                        plans->dim();
    for (size_t k = 0; k < archive->dim(); ++k) sketches[base + k].Add(archive->feature(i, k));
  }
  auto judged = otfair::core::JudgeDrift(*plans, sketches);
  if (!judged.ok()) return Fail(judged.status());
  const otfair::core::DriftReport& report = *judged;
  if (flags.GetBool("json", false)) {
    JsonWriter w;
    w.BeginObject()
        .Key("drifted").Bool(report.drifted)
        .Key("worst_w1").Double(report.worst_w1)
        .Key("worst_out_of_range").Double(report.worst_out_of_range)
        .Key("channels").BeginArray();
    for (const auto& c : report.channels) {
      w.BeginObject()
          .Key("u").Int(c.u)
          .Key("s").Int(c.s)
          .Key("k").Uint(c.k)
          .Key("count").Uint(c.count)
          .Key("w1").Double(c.w1_normalized)
          .Key("out_of_range_rate").Double(c.out_of_range_rate)
          .EndObject();
    }
    w.EndArray().EndObject();
    std::printf("%s\n", w.str().c_str());
  } else {
    std::printf("%s", report.ToString().c_str());
  }
  return report.drifted ? 3 : 0;  // non-zero exit signals drift to scripts
}

// --- simulate --------------------------------------------------------------

int RunSimulate(const FlagParser& flags) {
  if (WantsHelp(flags, PrintSimulateUsage)) return 0;
  const std::string out_path = flags.GetString("out", "");
  const int rows = flags.GetInt("rows", 0);
  if (out_path.empty() || rows < 1) {
    PrintSimulateUsage(stderr);
    return 2;
  }
  const int dim = flags.GetInt("dim", 2);
  if (dim < 1) return Fail(Status::InvalidArgument("--dim must be >= 1"));
  const double shift = flags.GetDouble("shift", 0.0);
  const int s_levels = flags.GetInt("s-levels", 2);
  const int u_levels = flags.GetInt("u-levels", 2);
  if (s_levels < 2 || u_levels < 1)
    return Fail(Status::InvalidArgument("--s-levels must be >= 2 and --u-levels >= 1"));
  const double shift_at = flags.GetDouble("shift-at", 0.0);
  if (shift_at < 0.0 || shift_at >= 1.0)
    return Fail(Status::InvalidArgument("--shift-at must lie in [0, 1)"));
  otfair::common::Rng rng(flags.GetUint64("seed", 1));

  // Simulates `n` rows with the component means offset by `mean_shift`,
  // continuing `rng` — so a --shift-at run's prefix segment consumes the
  // stream exactly like a plain run and stays bit-identical to it.
  auto simulate_segment =
      [&](size_t n,
          double mean_shift) -> otfair::common::Result<otfair::data::Dataset> {
    if (s_levels == 2 && u_levels == 2) {
      // The paper's binary configuration — kept on the original code path
      // so seeded fixtures stay bit-identical across releases.
      otfair::sim::GaussianSimConfig config = otfair::sim::GaussianSimConfig::PaperDefault();
      if (static_cast<size_t>(dim) != config.dim) {
        // The paper's +/-1 mean separation replicated across `dim` channels.
        config.dim = static_cast<size_t>(dim);
        config.mean[0][0].assign(config.dim, -1.0);
        config.mean[0][1].assign(config.dim, 0.0);
        config.mean[1][0].assign(config.dim, 1.0);
        config.mean[1][1].assign(config.dim, 0.0);
      }
      for (int u = 0; u <= 1; ++u)
        for (int s = 0; s <= 1; ++s)
          for (double& m : config.mean[u][s]) m += mean_shift;
      return otfair::sim::SimulateGaussianMixture(n, config, rng);
    }
    otfair::sim::MultiGroupSimConfig config = otfair::sim::MultiGroupSimConfig::Default(
        static_cast<size_t>(s_levels), static_cast<size_t>(u_levels),
        static_cast<size_t>(dim));
    for (auto& stratum : config.mean)
      for (auto& component : stratum)
        for (double& m : component) m += mean_shift;
    return otfair::sim::SimulateMultiGroupGaussian(n, config, rng);
  };

  otfair::common::Result<otfair::data::Dataset> dataset(Status::Internal("unreachable"));
  if (shift_at == 0.0) {
    dataset = simulate_segment(static_cast<size_t>(rows), shift);
  } else {
    // Mid-stream shift: an unshifted prefix and a shifted suffix drawn
    // from one continuing RNG stream, concatenated in row order.
    const size_t cut = static_cast<size_t>(shift_at * static_cast<double>(rows));
    if (cut < 1 || cut >= static_cast<size_t>(rows))
      return Fail(Status::InvalidArgument(
          "--shift-at leaves an empty segment; pick F with 1 <= floor(F*N) < N"));
    auto before = simulate_segment(cut, 0.0);
    if (!before.ok()) return Fail(before.status());
    auto after = simulate_segment(static_cast<size_t>(rows) - cut, shift);
    if (!after.ok()) return Fail(after.status());
    const size_t n = before->size() + after->size();
    otfair::common::Matrix features(n, static_cast<size_t>(dim));
    std::vector<int> s_labels(n);
    std::vector<int> u_labels(n);
    std::vector<int> outcomes;
    if (before->has_outcome() && after->has_outcome()) outcomes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const otfair::data::Dataset& part = i < before->size() ? *before : *after;
      const size_t j = i < before->size() ? i : i - before->size();
      for (size_t k = 0; k < static_cast<size_t>(dim); ++k)
        features(i, k) = part.feature(j, k);
      s_labels[i] = part.s(j);
      u_labels[i] = part.u(j);
      if (!outcomes.empty()) outcomes[i] = part.y(j);
    }
    dataset = otfair::data::Dataset::Create(
        std::move(features), std::move(s_labels), std::move(u_labels),
        before->feature_names(), std::move(outcomes), static_cast<size_t>(s_levels),
        static_cast<size_t>(u_levels));
  }
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status status = otfair::data::WriteCsv(*dataset, out_path); !status.ok())
    return Fail(status);
  std::printf("simulated %d rows (dim=%d, |S|=%d, |U|=%d, shift=%.2f) -> %s\n", rows, dim,
              s_levels, u_levels, shift, out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage(stdout);
    return 0;
  }
  FlagParser flags(argc - 1, argv + 1);
  // Global escape hatch, resolved before any command touches a kernel.
  // The env var OTFAIR_NO_SIMD is read by the dispatch layer itself; the
  // flag covers invocations where exporting a variable is awkward.
  if (flags.GetBool("no-simd", false))
    otfair::common::simd::SetForceScalar(true);
  if (command == "design") return RunDesign(flags);
  if (command == "repair") return RunRepair(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "loadgen") return RunLoadgenCmd(flags);
  if (command == "inspect") return RunInspect(flags);
  if (command == "drift") return RunDrift(flags);
  if (command == "simulate") return RunSimulate(flags);
  std::fprintf(stderr, "otfair: unknown command '%s'\n", command.c_str());
  return Usage();
}
