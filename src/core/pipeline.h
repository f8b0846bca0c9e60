#ifndef OTFAIR_CORE_PIPELINE_H_
#define OTFAIR_CORE_PIPELINE_H_

#include <optional>

#include "common/result.h"
#include "core/designer.h"
#include "core/repairer.h"
#include "data/dataset.h"

namespace otfair::core {

/// End-to-end repair pipeline options.
///
/// The OT backend is injected via `design.solver` (an `ot::Solver` from
/// `ot::MakeSolver`); the design stage — the only stage of this pipeline
/// that solves transport problems — uses it for every channel plan.
/// (The geometric baseline and the joint repairer take their own solver
/// in their respective option structs.)
struct PipelineOptions {
  DesignOptions design;
  RepairOptions repair;
  /// When true, archival s-labels are re-estimated from the research data
  /// (core::LabelEstimator) instead of trusting the archive's labels —
  /// paper §IV requirement 5 / §V-B operating mode.
  bool estimate_archive_labels = false;
};

/// Pipeline output: the designed plans plus repaired copies of both data
/// sets (the research repair is the paper's "on-sample repair", the archive
/// repair the "off-sample repair").
struct PipelineResult {
  RepairPlanSet plans;
  data::Dataset repaired_research;
  data::Dataset repaired_archive;
  RepairStats stats;
  /// Fraction of archival s_hat labels that match the archive's own labels
  /// (only set when estimate_archive_labels is true and the archive carries
  /// labels to compare against).
  std::optional<double> label_estimate_accuracy;
};

/// Runs Algorithm 1 on `research`, then Algorithm 2 on both sets.
common::Result<PipelineResult> RunRepairPipeline(const data::Dataset& research,
                                                 const data::Dataset& archive,
                                                 const PipelineOptions& options = {});

}  // namespace otfair::core

#endif  // OTFAIR_CORE_PIPELINE_H_
