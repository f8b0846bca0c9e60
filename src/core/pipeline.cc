#include "core/pipeline.h"

#include <utility>

#include "common/status.h"
#include "core/label_estimator.h"

namespace otfair::core {

using common::Result;
using common::Status;

Result<PipelineResult> RunRepairPipeline(const data::Dataset& research,
                                         const data::Dataset& archive,
                                         const PipelineOptions& options) {
  if (research.dim() != archive.dim())
    return Status::InvalidArgument("research/archive dimensionality mismatch");

  auto plans = DesignDistributionalRepair(research, options.design);
  if (!plans.ok()) return plans.status();

  auto repairer = OffSampleRepairer::Create(*plans, options.repair);
  if (!repairer.ok()) return repairer.status();

  PipelineResult result;
  result.plans = std::move(*plans);

  auto repaired_research = repairer->RepairDataset(research);
  if (!repaired_research.ok()) return repaired_research.status();
  result.repaired_research = std::move(*repaired_research);

  if (options.estimate_archive_labels) {
    auto estimator = LabelEstimator::Fit(research);
    if (!estimator.ok()) return estimator.status();
    auto s_hat = estimator->EstimateS(archive);
    if (!s_hat.ok()) return s_hat.status();
    size_t agree = 0;
    for (size_t i = 0; i < archive.size(); ++i) {
      if ((*s_hat)[i] == archive.s(i)) ++agree;
    }
    result.label_estimate_accuracy =
        static_cast<double>(agree) / static_cast<double>(archive.size());
    auto repaired_archive = repairer->RepairDatasetWithLabels(archive, *s_hat);
    if (!repaired_archive.ok()) return repaired_archive.status();
    result.repaired_archive = std::move(*repaired_archive);
  } else {
    auto repaired_archive = repairer->RepairDataset(archive);
    if (!repaired_archive.ok()) return repaired_archive.status();
    result.repaired_archive = std::move(*repaired_archive);
  }

  result.stats = repairer->stats();
  return result;
}

}  // namespace otfair::core
