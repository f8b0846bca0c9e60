// otfair_perfbench: end-to-end and per-layer benchmark of otfair's design,
// archive-repair and TCP-serving paths.
//
//   otfair_perfbench run --workload design|archive_repair|serve_tcp --seed N
//       --seconds S --trace 0|1 --work-dir DIR --otfair PATH [--trace-out FILE]
//   otfair_perfbench gen --seed N --work-dir DIR
//   otfair_perfbench design-setup --work-dir DIR
//
// `run` generates the seed's fixtures in a child process, then measures
// the workload. Untraced runs print the workload's end-to-end metrics;
// traced runs print the per-layer breakdown of all three paths (so every
// traced run reports the same layer table) and write the spans to FILE.
// The last stdout line is the result object.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunContext;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) == 0) flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string SelfExe() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  return n > 0 ? std::string(path, static_cast<size_t>(n)) : std::string();
}

int Run(const std::map<std::string, std::string>& flags) {
  RunContext ctx;
  auto get = [&](const char* key) {
    auto it = flags.find(key);
    return it == flags.end() ? std::string() : it->second;
  };
  ctx.workload = get("workload");
  ctx.seed = std::strtoull(get("seed").c_str(), nullptr, 10);
  ctx.seconds = std::strtod(get("seconds").c_str(), nullptr);
  ctx.trace = get("trace") == "1";
  ctx.work_dir = get("work-dir");
  ctx.otfair_bin = get("otfair");
  ctx.trace_path = get("trace-out");
  ctx.self_exe = SelfExe();
  if ((ctx.workload != "design" && ctx.workload != "archive_repair" &&
       ctx.workload != "serve_tcp") ||
      !(ctx.seconds > 0.0) || ctx.work_dir.empty() || ctx.otfair_bin.empty() ||
      access(ctx.otfair_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "otfair_perfbench run: bad arguments (see the usage in main.cc)\n");
    return 2;
  }

  perfbench::Child gen = perfbench::Spawn(
      {ctx.self_exe, "gen", "--seed", std::to_string(ctx.seed), "--work-dir", ctx.work_dir},
      false, false);
  if (perfbench::WaitChild(&gen) != 0) {
    std::fprintf(stderr, "fixture generation failed\n");
    return 1;
  }

  Report report;
  if (!ctx.trace) {
    if (ctx.workload == "design") perfbench::RunDesign(ctx, report);
    if (ctx.workload == "archive_repair") perfbench::RunArchive(ctx, report);
    if (ctx.workload == "serve_tcp") perfbench::RunServe(ctx, report);
  } else {
    std::vector<perfbench::Tracer> tracers;
    const double share = ctx.seconds / 3;
    perfbench::TraceDesign(ctx, share, ctx.workload == "design", report, tracers);
    perfbench::TraceArchive(ctx, share, ctx.workload == "archive_repair", report, tracers);
    perfbench::TraceServe(ctx, share, ctx.workload == "serve_tcp", report, tracers);
    report.Metric("host.ref_ms", report.ProbeMedianMs(), "ms");
    std::vector<const perfbench::Tracer*> views;
    for (const perfbench::Tracer& tracer : tracers) views.push_back(&tracer);
    if (!ctx.trace_path.empty() && !perfbench::WriteChromeTrace(ctx.trace_path, views))
      report.Fail("cannot write " + ctx.trace_path);
  }
  char line[512];
  std::snprintf(line, sizeof(line),
                "run: workload=%s seed=%llu seconds=%g trace=%d nproc=%u design_threads=%d "
                "archive_shards=%zu serve=--net-threads=3,--threads=1 host.ref_ms=%.4f",
                ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.trace ? 1 : 0, std::thread::hardware_concurrency(),
                perfbench::kDesignThreads, perfbench::kShards, report.ProbeMedianMs());
  report.Note(line);
  std::snprintf(line, sizeof(line), "failed_frac: %.6g (%llu failed of %llu attempted)",
                report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                             static_cast<double>(report.attempted())
                                       : 1.0,
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
  report.Note(line);
  if (report.attempted() == 0) report.Fail("nothing was attempted");
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: otfair_perfbench run|gen|design-setup --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (command == "run") return Run(flags);
  auto work_dir = flags.find("work-dir");
  if (work_dir == flags.end()) return 2;
  if (command == "design-setup") return perfbench::DesignSetupChild(work_dir->second);
  if (command == "gen") {
    auto seed = flags.find("seed");
    if (seed == flags.end()) return 2;
    const auto status =
        perfbench::GenerateFixtures(std::strtoull(seed->second.c_str(), nullptr, 10),
                                    work_dir->second);
    if (!status.ok()) std::fprintf(stderr, "gen: %s\n", status.ToString().c_str());
    return status.ok() ? 0 : 1;
  }
  return 2;
}
