// Ablation bench for the design choices called out in DESIGN.md:
//
//   A. Barycentre position t (paper Eq. 7): sweeping the repair target
//      along the W2 geodesic redistributes the damage between the two
//      s-classes while (near-)preserving the fairness of the result.
//   B. Transport mode: the paper's randomized mass split (Algorithm 2)
//      vs the deterministic conditional-mean map (§VI Monge discussion).
//   C. Plan solver: monotone (exact, O(n_Q)) vs Sinkhorn at two epsilons —
//      quality of the resulting repair vs design cost.
//
// Run:  ./build/bench/ablation_partial_repair [--n_archive=20000] [--seed=5]

#include <cmath>
#include <cstdio>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/designer.h"
#include "core/repairer.h"
#include "fairness/damage.h"
#include "fairness/emetric.h"
#include "ot/solver.h"
#include "sim/gaussian_mixture.h"

using otfair::common::FlagParser;
using otfair::common::Rng;
using otfair::common::Timer;

namespace {

struct Measured {
  double e = -1.0;
  double damage_s0 = -1.0;
  double damage_s1 = -1.0;
};

Measured Measure(const otfair::data::Dataset& before, const otfair::data::Dataset& after) {
  Measured out;
  if (auto e = otfair::fairness::AggregateE(after); e.ok()) out.e = *e;
  // Per-class damage: mean |x' - x| over rows of each s class (feature 0).
  double acc[2] = {0.0, 0.0};
  size_t count[2] = {0, 0};
  for (size_t i = 0; i < before.size(); ++i) {
    const int s = before.s(i);
    double row = 0.0;
    for (size_t k = 0; k < before.dim(); ++k) {
      const double d = after.feature(i, k) - before.feature(i, k);
      row += d * d;
    }
    acc[s] += std::sqrt(row);
    ++count[s];
  }
  out.damage_s0 = count[0] ? acc[0] / static_cast<double>(count[0]) : 0.0;
  out.damage_s1 = count[1] ? acc[1] / static_cast<double>(count[1]) : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const size_t n_archive = static_cast<size_t>(flags.GetInt("n_archive", 20000));
  const uint64_t seed = flags.GetUint64("seed", 5);
  if (auto status = flags.Validate({"n_archive", "seed"}); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  Rng rng(seed);
  const auto config = otfair::sim::GaussianSimConfig::PaperDefault();
  auto research = otfair::sim::SimulateGaussianMixture(800, config, rng);
  auto archive = otfair::sim::SimulateGaussianMixture(n_archive, config, rng);
  if (!research.ok() || !archive.ok()) return 1;
  auto e_raw = otfair::fairness::AggregateE(*archive);
  std::printf("ABLATIONS (unrepaired archive E = %.4f, n_A = %zu)\n\n", *e_raw,
              archive->size());

  // --- A: barycentre position t. ---
  std::printf("[A] barycentre position t (who absorbs the damage)\n");
  std::printf("%8s  %12s  %16s  %16s\n", "t", "E (archive)", "damage s=0", "damage s=1");
  for (const double t : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    otfair::core::DesignOptions design;
    design.target_t = t;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design);
    if (!plans.ok()) return 1;
    otfair::core::RepairOptions repair;
    repair.seed = seed;
    auto repairer = otfair::core::OffSampleRepairer::Create(*plans, repair);
    if (!repairer.ok()) return 1;
    auto repaired = repairer->RepairDataset(*archive);
    if (!repaired.ok()) return 1;
    const Measured m = Measure(*archive, *repaired);
    std::printf("%8.2f  %12.4f  %16.4f  %16.4f\n", t, m.e, m.damage_s0, m.damage_s1);
  }
  std::printf("expected: E roughly flat in t; damage shifts monotonically from the\n"
              "s=1 class (t=0 drags it onto mu_0) to the s=0 class (t=1).\n\n");

  // --- B: transport mode. ---
  std::printf("[B] transport mode (Algorithm 2 randomization vs conditional mean)\n");
  std::printf("%-18s  %12s  %16s\n", "mode", "E (archive)", "mean damage");
  for (const auto mode : {otfair::core::TransportMode::kStochastic,
                          otfair::core::TransportMode::kConditionalMean}) {
    auto plans = otfair::core::DesignDistributionalRepair(*research, {});
    if (!plans.ok()) return 1;
    otfair::core::RepairOptions repair;
    repair.mode = mode;
    repair.seed = seed;
    auto repairer = otfair::core::OffSampleRepairer::Create(*plans, repair);
    if (!repairer.ok()) return 1;
    auto repaired = repairer->RepairDataset(*archive);
    if (!repaired.ok()) return 1;
    auto damage = otfair::fairness::ComputeDamage(*archive, *repaired);
    const Measured m = Measure(*archive, *repaired);
    std::printf("%-18s  %12.4f  %16.4f\n",
                mode == otfair::core::TransportMode::kStochastic ? "stochastic"
                                                                 : "conditional-mean",
                m.e, damage.ok() ? damage->mean_l2_displacement : -1.0);
  }
  std::printf("expected: similar E; the deterministic map damages slightly less but\n"
              "narrows the repaired marginal (no mass splitting).\n\n");

  // --- C: plan solver. ---
  std::printf("[C] plan solver (design cost vs repair quality, n_Q = 50)\n");
  std::printf("%-22s  %12s  %14s  %14s\n", "solver", "E (archive)", "mean damage",
              "design ms");
  struct SolverCase {
    const char* name;
    const char* backend;
    double epsilon;
  };
  const SolverCase cases[] = {
      {"monotone (exact)", "monotone", 0.0},
      {"network flow (exact)", "exact", 0.0},
      {"sinkhorn eps=0.5", "sinkhorn", 0.5},
      {"sinkhorn eps=0.05", "sinkhorn", 0.05},
  };
  for (const SolverCase& c : cases) {
    otfair::core::DesignOptions design;
    otfair::ot::SolverOptions solver_options;
    if (c.epsilon > 0.0) solver_options.sinkhorn.epsilon = c.epsilon;
    design.solver = *otfair::ot::MakeSolver(c.backend, solver_options);
    Timer timer;
    auto plans = otfair::core::DesignDistributionalRepair(*research, design);
    const double ms = timer.ElapsedMillis();
    if (!plans.ok()) {
      std::printf("%-22s  failed: %s\n", c.name, plans.status().ToString().c_str());
      continue;
    }
    otfair::core::RepairOptions repair;
    repair.seed = seed;
    auto repairer = otfair::core::OffSampleRepairer::Create(*plans, repair);
    if (!repairer.ok()) return 1;
    auto repaired = repairer->RepairDataset(*archive);
    if (!repaired.ok()) return 1;
    auto damage = otfair::fairness::ComputeDamage(*archive, *repaired);
    const Measured m = Measure(*archive, *repaired);
    std::printf("%-22s  %12.4f  %14.4f  %14.2f\n", c.name, m.e,
                damage.ok() ? damage->mean_l2_displacement : -1.0, ms);
  }
  std::printf("expected: monotone and network-flow give identical E (same optimum)\n"
              "with monotone far cheaper. Entropic plans blur the transport: loose\n"
              "Sinkhorn homogenizes the two repaired conditionals even further\n"
              "(lower E) but at visibly higher data damage; tightening epsilon\n"
              "approaches the exact repair at growing design cost — the regularized\n"
              "trade-off the paper cites via [35].\n");
  return 0;
}
