// Ablation: per-feature repair (the paper's stratification, §IV-A) vs joint
// bivariate repair (the §VI intra-feature-correlation extension), on
// simulated data where the s-dependence enters through the *correlation*
// of the feature pair, not (only) through the marginals.
//
// The per-feature repair can only equalize the two s-conditional marginals
// per channel; when the s-classes differ in copula, the joint E metric
// stays elevated after per-feature repair, while the joint repair drives
// it down — at a design cost that is quadratic in the grid size, which is
// exactly the curse-of-dimensionality trade-off the paper describes.
//
// Run:  ./build/bench/ablation_joint_repair [--n_research=4000]
//           [--n_archive=8000] [--rho=0.85] [--seed=13]

#include <cstdio>
#include <utility>

#include "common/flags.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/designer.h"
#include "core/joint_repair.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "fairness/joint_emetric.h"
#include "sim/gaussian_mixture.h"

using otfair::common::FlagParser;
using otfair::common::OrExit;
using otfair::common::Rng;
using otfair::common::Timer;

namespace {

/// Builds a dataset whose s = 0 rows carry pairwise correlation `rho` and
/// s = 1 rows are uncorrelated, with identical component means — the
/// "copula-only unfairness" regime.
otfair::data::Dataset BuildCopulaDataset(size_t n, double rho, Rng& rng) {
  otfair::sim::GaussianSimConfig base = otfair::sim::GaussianSimConfig::PaperDefault();
  base.mean[0][0] = {0.0, 0.0};
  base.mean[0][1] = {0.0, 0.0};
  base.mean[1][0] = {1.0, 1.0};
  base.mean[1][1] = {1.0, 1.0};
  otfair::sim::GaussianSimConfig correlated = base;
  correlated.rho = rho;

  auto d_corr = otfair::sim::SimulateGaussianMixture(n, correlated, rng);
  auto d_ind = otfair::sim::SimulateGaussianMixture(n, base, rng);
  std::vector<size_t> idx0;
  std::vector<size_t> idx1;
  for (size_t i = 0; i < d_corr->size(); ++i) {
    if (d_corr->s(i) == 0) idx0.push_back(i);
  }
  for (size_t i = 0; i < d_ind->size(); ++i) {
    if (d_ind->s(i) == 1) idx1.push_back(i);
  }
  otfair::data::Dataset part0 = d_corr->Subset(idx0);
  otfair::data::Dataset part1 = d_ind->Subset(idx1);
  otfair::common::Matrix features(part0.size() + part1.size(), 2);
  std::vector<int> s;
  std::vector<int> u;
  for (size_t i = 0; i < part0.size(); ++i) {
    features(i, 0) = part0.feature(i, 0);
    features(i, 1) = part0.feature(i, 1);
    s.push_back(0);
    u.push_back(part0.u(i));
  }
  for (size_t i = 0; i < part1.size(); ++i) {
    features(part0.size() + i, 0) = part1.feature(i, 0);
    features(part0.size() + i, 1) = part1.feature(i, 1);
    s.push_back(1);
    u.push_back(part1.u(i));
  }
  return *otfair::data::Dataset::Create(std::move(features), std::move(s), std::move(u),
                                        {"x1", "x2"});
}

void PrintRow(const char* tag, const otfair::data::Dataset& dataset, double design_ms) {
  auto marginal = otfair::fairness::AggregateE(dataset);
  auto joint = otfair::fairness::JointFeaturePairE(dataset, 0, 1);
  std::printf("%-26s  %12.4f  %12.4f  %12.1f\n", tag, marginal.ok() ? *marginal : -1.0,
              joint.ok() ? *joint : -1.0, design_ms);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const size_t n_research = static_cast<size_t>(flags.GetInt("n_research", 4000));
  const size_t n_archive = static_cast<size_t>(flags.GetInt("n_archive", 8000));
  const double rho = flags.GetDouble("rho", 0.85);
  const uint64_t seed = flags.GetUint64("seed", 13);
  if (auto status = flags.Validate({"n_research", "n_archive", "rho", "seed"});
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  Rng rng(seed);
  otfair::data::Dataset pool = BuildCopulaDataset(n_research + n_archive, rho, rng);
  Rng split_rng(seed + 1);
  const auto split = OrExit(otfair::data::SplitResearchArchive(
                                pool, std::min(n_research, pool.size() - 1), split_rng),
                            "research/archive split");
  const otfair::data::Dataset& research = split.first;
  const otfair::data::Dataset& archive = split.second;

  std::printf("JOINT vs PER-FEATURE REPAIR (copula-only unfairness, rho=%.2f, "
              "n_R=%zu, n_A=%zu)\n\n", rho, research.size(), archive.size());
  std::printf("%-26s  %12s  %12s  %12s\n", "dataset", "marginal E", "joint E",
              "design ms");
  PrintRow("archive, unrepaired", archive, 0.0);

  // Per-feature repair (the paper's Algorithms 1+2).
  Timer per_feature_timer;
  auto plans = OrExit(otfair::core::DesignDistributionalRepair(research, {}),
                      "per-feature design");
  const double per_feature_ms = per_feature_timer.ElapsedMillis();
  otfair::core::RepairOptions repair;
  repair.seed = seed;
  auto repairer = OrExit(otfair::core::OffSampleRepairer::Create(std::move(plans), repair),
                         "per-feature repairer");
  PrintRow("archive, per-feature",
           OrExit(repairer.RepairDataset(archive), "per-feature repair"), per_feature_ms);

  // Joint repair at two resolutions.
  for (const size_t n_q : {12u, 24u}) {
    otfair::core::JointDesignOptions options;
    options.n_q = n_q;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "archive, joint (n_q=%zu)", n_q);
    Timer joint_timer;
    const auto joint =
        OrExit(otfair::core::JointPairRepairer::Design(research, 0, 1, options), tag);
    const double joint_ms = joint_timer.ElapsedMillis();
    PrintRow(tag, OrExit(joint.RepairDataset(archive, seed + 2), tag), joint_ms);
  }

  std::printf("\nexpected: per-feature repair leaves most of the *joint* dependence\n"
              "(it only matches the per-channel marginals; the copula gap survives);\n"
              "joint repair removes it, at a design cost growing ~n_q^2-fold — the\n"
              "curse-of-dimensionality trade-off of paper §VI.\n");
  return 0;
}
