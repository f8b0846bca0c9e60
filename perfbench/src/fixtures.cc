// Fixture generation and the report every run prints.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/csv.h"
#include "fairness/emetric.h"
#include "sim/gaussian_mixture.h"
#include "workloads.h"

namespace perfbench {

using otfair::common::Status;

std::string ResearchPath(const RunContext& ctx) { return ctx.work_dir + "/research.csv"; }
std::string ShardPath(const RunContext& ctx, size_t shard) {
  return ctx.work_dir + "/archive_" + std::to_string(shard) + ".csv";
}
std::string PlanPath(const RunContext& ctx) { return ctx.work_dir + "/plan.bin"; }

otfair::core::DesignOptions BenchDesignOptions(int threads) {
  otfair::core::DesignOptions options;
  options.n_q = kNq;
  options.threads = threads;
  return options;
}

Status GenerateFixtures(uint64_t seed, const std::string& dir) {
  RunContext ctx;
  ctx.work_dir = dir;
  // The paper's §V-A mixture (means -1/0/+1/0 per (u, s) group, unit
  // variance, Pr[s=0|u] = 0.3 / 0.1) on every one of kDim features.
  otfair::sim::GaussianSimConfig config = otfair::sim::GaussianSimConfig::PaperDefault();
  config.dim = kDim;
  config.mean[0][0].assign(kDim, -1.0);
  config.mean[0][1].assign(kDim, 0.0);
  config.mean[1][0].assign(kDim, 1.0);
  config.mean[1][1].assign(kDim, 0.0);

  otfair::common::Rng research_rng = otfair::common::Rng::ForStream(seed, 1);
  auto research = otfair::sim::SimulateGaussianMixture(kResearchRows, config, research_rng);
  if (!research.ok()) return research.status();
  OTFAIR_RETURN_IF_ERROR(otfair::data::WriteCsv(*research, ResearchPath(ctx)));
  for (size_t shard = 0; shard < kShards; ++shard) {
    otfair::common::Rng rng = otfair::common::Rng::ForStream(seed, 100 + shard);
    auto archive = otfair::sim::SimulateGaussianMixture(kShardRows, config, rng);
    if (!archive.ok()) return archive.status();
    OTFAIR_RETURN_IF_ERROR(otfair::data::WriteCsv(*archive, ShardPath(ctx, shard)));
  }
  otfair::common::parallel::SetThreadCount(kDesignThreads);
  auto plans = otfair::core::DesignDistributionalRepair(*research,
                                                        BenchDesignOptions(kDesignThreads));
  if (!plans.ok()) return plans.status();
  OTFAIR_RETURN_IF_ERROR(plans->Validate(1e-5));
  return plans->SaveToFile(PlanPath(ctx));
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& why) {
  correct_ = false;
  notes_.push_back("CHECK FAILED: " + why);
}

void Report::Print() const {
  bool correct = correct_;
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  for (const Entry& entry : metrics_) {
    std::printf("%-28s %.6g %s\n", entry.name.c_str(), entry.value, entry.unit.c_str());
    if (!std::isfinite(entry.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", entry.name.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& entry = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                entry.name.c_str(), std::isfinite(entry.value) ? entry.value : -1.0,
                entry.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string TailSummary(const std::string& name, const std::vector<double>& samples,
                        const std::string& unit) {
  char line[256];
  const size_t n = samples.size();
  if (n < 20) {
    std::snprintf(line, sizeof(line), "%s: median %.4g %s, n = %zu", name.c_str(),
                  Median(samples), unit.c_str(), n);
  } else {
    const double q = 1.0 - 10.0 / static_cast<double>(n);
    std::snprintf(line, sizeof(line), "%s: median %.4g %s, p%.6g %.4g %s, n = %zu",
                  name.c_str(), Median(samples), unit.c_str(), 100.0 * q,
                  Quantile(samples, q), unit.c_str(), n);
  }
  return line;
}

void CoverageNote(Report& report, const std::string& path, double share, double reference_ms,
                  const std::vector<std::pair<std::string, double>>& gaps) {
  char line[256];
  std::snprintf(line, sizeof(line), "%s coverage: layers %.1f%% of %.4g ms -> %s", path.c_str(),
                100.0 * share, reference_ms,
                std::abs(share - 1.0) <= 0.10 ? "within 10%" : "GAP beyond 10%");
  report.Note(line);
  double named = 0.0;
  for (const auto& [name, ms] : gaps) {
    std::snprintf(line, sizeof(line), "  %s gap: %s %.4g ms", path.c_str(), name.c_str(), ms);
    report.Note(line);
    named += ms;
  }
  std::snprintf(line, sizeof(line), "  %s gap: unexplained %.4g ms", path.c_str(),
                reference_ms * (1.0 - share) - named);
  report.Note(line);
}

otfair::data::Dataset HeadRows(const otfair::data::Dataset& ds, size_t n) {
  std::vector<size_t> rows(std::min(n, ds.size()));
  std::iota(rows.begin(), rows.end(), size_t{0});
  return ds.Subset(rows);
}

double ERatio(const otfair::data::Dataset& original, const otfair::data::Dataset& repaired) {
  auto before = otfair::fairness::AggregateE(HeadRows(original, kEratioRows));
  auto after = otfair::fairness::AggregateE(HeadRows(repaired, kEratioRows));
  if (!before.ok() || !after.ok() || *before <= 0.0) return std::nan("");
  return *after / *before;
}

void NoteERatio(Report& report, double e_ratio) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "e_ratio: %.6g ratio (E repaired / E original on %zu rows; lower is better; "
                "fixed by the seed, so reported but not gated)",
                e_ratio, kEratioRows);
  report.Note(line);
  if (!(e_ratio > 0.0 && std::isfinite(e_ratio))) report.Fail("e_ratio could not be computed");
}

bool SameRows(const otfair::data::Dataset& a, const otfair::data::Dataset& b) {
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  if (a.s_labels() != b.s_labels() || a.u_labels() != b.u_labels()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    for (size_t k = 0; k < a.dim(); ++k)
      if (a.feature(i, k) != b.feature(i, k)) return false;
  return true;
}

}  // namespace perfbench
