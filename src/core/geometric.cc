#include "core/geometric.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/repair_plan.h"
#include "ot/measure.h"
#include "ot/plan.h"

namespace otfair::core {

using common::Result;
using common::Status;

namespace {

/// One s-class of one u-stratum's channel: samples in sorted order plus
/// the permutation back to dataset rows.
struct SortedClass {
  std::vector<size_t> rows;    // dataset row indices (unsorted order)
  std::vector<size_t> order;   // sorted position -> local index into rows
  std::vector<double> sorted;  // sorted sample values
};

SortedClass SortClass(const data::Dataset& research, const std::vector<size_t>& idx,
                      size_t k) {
  SortedClass out;
  out.rows = idx;
  const std::vector<double> x = research.FeatureColumn(k, idx);
  out.order.resize(x.size());
  std::iota(out.order.begin(), out.order.end(), 0);
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&](size_t a, size_t b) { return x[a] < x[b]; });
  out.sorted.resize(x.size());
  for (size_t i = 0; i < x.size(); ++i) out.sorted[i] = x[out.order[i]];
  return out;
}

}  // namespace

Result<data::Dataset> GeometricRepairDataset(const data::Dataset& research,
                                             const GeometricOptions& options) {
  if (research.empty()) return Status::InvalidArgument("empty research dataset");
  if (!(options.t >= 0.0 && options.t <= 1.0))
    return Status::InvalidArgument("t must lie in [0, 1]");
  const ot::Solver& solver = options.solver ? *options.solver : *ot::DefaultSolver();
  const size_t s_levels = research.s_levels();
  const size_t u_levels = research.u_levels();

  // Class weights (shared contract: ResolveLambdas).
  auto resolved = ResolveLambdas(options.lambdas, options.t, s_levels);
  if (!resolved.ok()) return resolved.status();
  const std::vector<double> lam = std::move(*resolved);

  data::Dataset repaired = research.Clone();

  // Per-u row strata, validated up front so the per-channel repairs below
  // are independent tasks.
  struct Stratum {
    std::vector<std::vector<size_t>> idx_by_s;
  };
  std::vector<Stratum> strata(u_levels);
  for (size_t u = 0; u < u_levels; ++u) {
    strata[u].idx_by_s.resize(s_levels);
    for (size_t s = 0; s < s_levels; ++s) {
      strata[u].idx_by_s[s] =
          research.GroupIndices({static_cast<int>(u), static_cast<int>(s)});
      if (strata[u].idx_by_s[s].size() < options.min_group_size)
        return Status::FailedPrecondition("research group (u=" + std::to_string(u) +
                                          ", s=" + std::to_string(s) + ") lacks rows");
    }
  }

  // One channel repair for every |S|: each class moves to the
  // lambda-weighted barycenter of all classes,
  //
  //     out_s = lambda_s x + sum_{s' != s, ascending} (n_s lambda_{s'}) T_{s<-s'},
  //
  // where T_{s<-s'} are the conditional sums of the (s, s') coupling. At
  // |S| = 2 this is Eqs. 8-9 term for term. Couplings are solved once per
  // pair a < b; visiting the pairs in that order adds each class's foreign
  // terms in ascending s'.
  auto repair_channel = [&](size_t u, size_t k) -> Status {
    std::vector<SortedClass> classes(s_levels);
    std::vector<ot::DiscreteMeasure> mu(s_levels);
    std::vector<std::vector<double>> out(s_levels);
    for (size_t s = 0; s < s_levels; ++s) {
      classes[s] = SortClass(research, strata[u].idx_by_s[s], k);
      auto m = ot::DiscreteMeasure::FromSamples(classes[s].sorted);
      if (!m.ok()) return m.status();
      mu[s] = std::move(*m);
      for (double x : classes[s].sorted) out[s].push_back(lam[s] * x);
    }
    for (size_t a = 0; a < s_levels; ++a) {
      const std::vector<double>& xa = classes[a].sorted;
      for (size_t b = a + 1; b < s_levels; ++b) {
        const std::vector<double>& xb = classes[b].sorted;
        // Both measures are sorted, so the backend's CSR rows index the
        // sorted sample orders directly.
        auto coupling = solver.Solve1DSparse(mu[a], mu[b]);
        if (!coupling.ok()) return coupling.status();
        // T_{a<-b}[i] = sum_j pi_ij x_{b,j} and T_{b<-a}[j] = sum_i pi_ij
        // x_{a,i}, one O(nnz) sweep over the CSR rows. Rows of pi sum to
        // 1/n_a and columns to 1/n_b, so n_a T_{a<-b} and n_b T_{b<-a} are
        // the conditional means.
        std::vector<double> ta(xa.size(), 0.0);
        std::vector<double> tb(xb.size(), 0.0);
        for (size_t i = 0; i < coupling->rows(); ++i) {
          const ot::SparsePlan::RowView row = coupling->Row(i);
          for (size_t e = 0; e < row.nnz; ++e) {
            ta[i] += row.values[e] * xb[row.cols[e]];
            tb[row.cols[e]] += row.values[e] * xa[i];
          }
        }
        const double wa = static_cast<double>(xa.size()) * lam[b];
        const double wb = static_cast<double>(xb.size()) * lam[a];
        for (size_t i = 0; i < ta.size(); ++i) out[a][i] += wa * ta[i];
        for (size_t j = 0; j < tb.size(); ++j) out[b][j] += wb * tb[j];
      }
    }

    for (size_t s = 0; s < s_levels; ++s) {
      const SortedClass& cls = classes[s];
      for (size_t i = 0; i < cls.sorted.size(); ++i)
        repaired.set_feature(cls.rows[cls.order[i]], k, out[s][i]);
    }
    return Status::Ok();
  };

  // Each (u, k) task touches only its own stratum's rows in column k, so
  // the writes are disjoint and any schedule yields bit-identical output
  // (and a deterministic first error).
  const size_t dim = research.dim();
  Status status = common::parallel::ParallelForStatus(
      0, u_levels * dim, [&](size_t task) { return repair_channel(task / dim, task % dim); });
  if (!status.ok()) return status;
  return repaired;
}

}  // namespace otfair::core
