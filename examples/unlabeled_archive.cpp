// Production-ops scenario: repairing an archival stream whose protected
// attribute S was never recorded (the common case the paper highlights in
// §VI), while watching for stationarity violations.
//
//  1. Fit per-u mixture models on the labelled research set and derive
//     archival posteriors Pr[s = 1 | x, u]  (core::LabelEstimator).
//  2. Repair the archive three ways and compare: with the ground-truth
//     labels (oracle), with hard MAP label estimates, and with soft
//     posterior-weighted repair (Monge/quantile map).
//  3. Judge drift (core::JudgeDrift over per-channel quantile sketches) on
//     a later, drifted archive batch and show the alarm that tells the
//     operator to re-collect research data.
//
// Run:  ./build/examples/unlabeled_archive [--n_research=2000]
//           [--n_archive=8000] [--seed=41]

#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "core/designer.h"
#include "core/drift.h"
#include "core/label_estimator.h"
#include "core/quantile_repair.h"
#include "core/repairer.h"
#include "fairness/emetric.h"
#include "sim/gaussian_mixture.h"
#include "stats/quantile_sketch.h"

using otfair::common::FlagParser;
using otfair::common::OrExit;
using otfair::common::Rng;

namespace {

void PrintE(const char* tag, const otfair::data::Dataset& dataset) {
  auto e = otfair::fairness::AggregateE(dataset);
  std::printf("  %-44s E = %.4f\n", tag, e.ok() ? *e : -1.0);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const size_t n_research = static_cast<size_t>(flags.GetInt("n_research", 2000));
  const size_t n_archive = static_cast<size_t>(flags.GetInt("n_archive", 8000));
  const uint64_t seed = flags.GetUint64("seed", 41);
  if (auto status = flags.Validate({"n_research", "n_archive", "seed"}); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  Rng rng(seed);
  const auto config = otfair::sim::GaussianSimConfig::PaperDefault();
  const auto research =
      OrExit(otfair::sim::SimulateGaussianMixture(n_research, config, rng), "research simulation");
  const auto archive =
      OrExit(otfair::sim::SimulateGaussianMixture(n_archive, config, rng), "archive simulation");

  const auto plans = OrExit(otfair::core::DesignDistributionalRepair(research, {}), "design");
  const auto estimator = OrExit(otfair::core::LabelEstimator::Fit(research), "label estimator");
  const auto map_labels = OrExit(estimator.EstimateS(archive), "MAP label estimates");
  const auto posteriors = OrExit(estimator.PosteriorsS1(archive), "label posteriors");
  auto label_accuracy = estimator.AccuracyOn(archive);
  std::printf("archive S-labels withheld; GMM MAP label accuracy vs truth: %.3f\n\n",
              label_accuracy.ok() ? *label_accuracy : -1.0);

  std::printf("-- residual conditional dependence after repair --\n");
  PrintE("unrepaired archive", archive);

  otfair::core::RepairOptions options;
  options.seed = seed;
  auto oracle =
      OrExit(otfair::core::OffSampleRepairer::Create(plans, options), "oracle repairer");
  auto hard = OrExit(otfair::core::OffSampleRepairer::Create(plans, options), "MAP repairer");
  auto monge = OrExit(otfair::core::QuantileMapRepairer::Create(plans), "Monge repairer");

  PrintE("repaired with true labels (oracle)",
         OrExit(oracle.RepairDataset(archive), "oracle repair"));
  PrintE("repaired with MAP label estimates",
         OrExit(hard.RepairDatasetWithLabels(archive, map_labels), "MAP-label repair"));
  PrintE("repaired with posterior-soft Monge map",
         OrExit(monge.RepairDatasetSoft(archive, posteriors), "soft Monge repair"));

  // Drift monitoring on a later batch drawn from a shifted population:
  // one quantile sketch per (u, s, k) channel, judged against the design.
  std::printf("\n-- drift monitor over a later archive batch --\n");
  auto judge = [&](const otfair::data::Dataset& batch) {
    std::vector<otfair::stats::QuantileSketch> sketches(2 * 2 * 2);
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t base = static_cast<size_t>(batch.u(i) * 2 + batch.s(i)) * 2;
      for (size_t k = 0; k < 2; ++k) sketches[base + k].Add(batch.feature(i, k));
    }
    return otfair::core::JudgeDrift(plans, sketches);
  };

  Rng stream_rng(seed + 1);
  const auto same = OrExit(otfair::sim::SimulateGaussianMixture(5000, config, stream_rng),
                           "stationary batch simulation");
  const auto stationary = OrExit(judge(same), "stationary drift check");
  std::printf("batch 1 (stationary): %s", stationary.drifted ? "DRIFT\n" : "ok\n");

  otfair::sim::GaussianSimConfig drifted = config;
  for (int u = 0; u <= 1; ++u) {
    for (int s = 0; s <= 1; ++s) {
      drifted.mean[u][s][0] += 1.2;  // population shifted in channel 0
    }
  }
  const auto later = OrExit(otfair::sim::SimulateGaussianMixture(5000, drifted, stream_rng),
                            "shifted batch simulation");
  const otfair::core::DriftReport report = OrExit(judge(later), "shifted drift check");
  std::printf("batch 2 (mean-shifted): %s", report.drifted ? "DRIFT DETECTED\n" : "ok\n");
  std::printf("  worst normalized W1 = %.3f, worst out-of-range rate = %.3f\n",
              report.worst_w1, report.worst_out_of_range);
  std::printf("\nOn drift the operator should re-collect labelled research data and\n"
              "re-run the design step; the stationarity assumption (paper §IV) no\n"
              "longer holds for the incoming stream.\n");
  return 0;
}
