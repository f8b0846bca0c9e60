// Reproduces paper Table II: E per feature (age, hours/week) for the Adult
// income setting — s = male, u = college-educated — research vs archive,
// unrepaired vs distributional (ours) vs geometric [10].
//
// Paper parameters: n_R = 10000, n_A = 35222, n_Q = 250, single run.
// Data source: the Adult-like synthetic generator (DESIGN.md §3) with mild
// archive drift, or --csv=<path> for a genuine preprocessed Adult file.
//
// Run:  ./build/bench/table2_adult [--n_research=10000] [--n_archive=35222]
//           [--n_q=250] [--seed=2] [--csv=path]

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/geometric.h"
#include "core/pipeline.h"
#include "data/adult_like.h"
#include "data/csv.h"
#include "fairness/emetric.h"

using otfair::common::FlagParser;
using otfair::common::OrExit;
using otfair::common::Rng;

namespace {

double FeatureEOrNan(const otfair::data::Dataset& dataset, size_t k) {
  auto e = otfair::fairness::FeatureE(dataset, k);
  return e.ok() ? *e : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const size_t n_research = static_cast<size_t>(flags.GetInt("n_research", 10000));
  const size_t n_archive = static_cast<size_t>(flags.GetInt("n_archive", 35222));
  const size_t n_q = static_cast<size_t>(flags.GetInt("n_q", 250));
  const uint64_t seed = flags.GetUint64("seed", 2);
  const std::string csv = flags.GetString("csv", "");
  if (auto status = flags.Validate({"n_research", "n_archive", "n_q", "seed", "csv"});
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  Rng rng(seed);
  otfair::data::Dataset research;
  otfair::data::Dataset archive;
  if (!csv.empty()) {
    auto full = otfair::data::ReadCsv(csv);
    if (!full.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", csv.c_str(),
                   full.status().ToString().c_str());
      return 1;
    }
    auto split = OrExit(otfair::data::SplitResearchArchive(
                            *full, std::min(n_research, full->size() - 1), rng),
                        "research/archive split");
    research = std::move(split.first);
    archive = std::move(split.second);
  } else {
    research = OrExit(otfair::data::GenerateAdultLike(n_research, rng, {.drift = 0.0}),
                      "research generation");
    archive = OrExit(otfair::data::GenerateAdultLike(n_archive, rng, {.drift = 0.15}),
                     "archive generation");
  }

  otfair::core::PipelineOptions options;
  options.design.n_q = n_q;
  options.repair.seed = seed;
  auto pipeline = otfair::core::RunRepairPipeline(research, archive, options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto geometric = otfair::core::GeometricRepairDataset(research, {});
  if (!geometric.ok()) {
    std::fprintf(stderr, "geometric repair failed: %s\n",
                 geometric.status().ToString().c_str());
    return 1;
  }

  std::printf("TABLE II: quenching gender dependence of educational groups, Adult "
              "income setting\n");
  std::printf("(%s; n_R=%zu, n_A=%zu, n_Q=%zu, seed=%llu)\n\n",
              csv.empty() ? "synthetic Adult-like data" : csv.c_str(), research.size(),
              archive.size(), n_q, static_cast<unsigned long long>(seed));
  std::printf("%-22s | %-12s %-12s | %-12s %-12s\n", "Repair", "Age (Res)", "Hours (Res)",
              "Age (Arc)", "Hours (Arc)");
  std::printf("%.*s\n", 82,
              "-----------------------------------------------------------------"
              "-----------------");
  std::printf("%-22s | %-12.4f %-12.4f | %-12.4f %-12.4f\n", "None",
              FeatureEOrNan(research, 0), FeatureEOrNan(research, 1),
              FeatureEOrNan(archive, 0), FeatureEOrNan(archive, 1));
  std::printf("%-22s | %-12.4f %-12.4f | %-12.4f %-12.4f\n", "Distributional (ours)",
              FeatureEOrNan(pipeline->repaired_research, 0),
              FeatureEOrNan(pipeline->repaired_research, 1),
              FeatureEOrNan(pipeline->repaired_archive, 0),
              FeatureEOrNan(pipeline->repaired_archive, 1));
  std::printf("%-22s | %-12.4f %-12.4f | %-12s %-12s\n", "Geometric [10]",
              FeatureEOrNan(*geometric, 0), FeatureEOrNan(*geometric, 1), "-", "-");

  std::printf("\nExpected shape (paper Table II): unrepaired E far smaller than the\n"
              "simulation study (groups overlap heavily); distributional repair\n"
              "reduces E severalfold on research AND archive (paper: ~4x / ~3x).\n"
              "Known deviation: the paper's geometric baseline fails on hours/week\n"
              "(E stays at 2.126 of 2.700) — an artifact of their solver on heavily\n"
              "tied integer data; our implementation of [10] uses the canonical\n"
              "monotone coupling and repairs that channel fine. See EXPERIMENTS.md.\n");
  return 0;
}
