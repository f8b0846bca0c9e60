#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"

namespace otfair::stats {

double Mean(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  if (xs.size() == 1) return 0.0;
  const double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double Min(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

namespace {
// Type-7 quantile of the values in `scratch`, which it reorders. The
// formula reads the sorted sample at lo and hi = lo + 1 (clamped), and
// selection finds both without a sort: nth_element puts the lo-th order
// statistic at lo with nothing smaller after it, so the next one is the
// least element after lo. Any reordering of the same values gives the
// same two order statistics.
double SelectQuantile(std::vector<double>& scratch, double q) {
  OTFAIR_CHECK(q >= 0.0 && q <= 1.0);
  const size_t n = scratch.size();
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto at_lo = scratch.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(scratch.begin(), at_lo, scratch.end());
  const double lo_value = *at_lo;
  const double hi_value = hi == lo ? lo_value : *std::min_element(at_lo + 1, scratch.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}
}  // namespace

double Quantile(const std::vector<double>& xs, double q) {
  OTFAIR_CHECK(!xs.empty());
  std::vector<double> scratch(xs);
  return SelectQuantile(scratch, q);
}

double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

double Iqr(const std::vector<double>& xs) {
  OTFAIR_CHECK(!xs.empty());
  // Both quartiles select from one copy.
  std::vector<double> scratch(xs);
  const double upper = SelectQuantile(scratch, 0.75);
  return upper - SelectQuantile(scratch, 0.25);
}

MeanStd ComputeMeanStd(const std::vector<double>& xs) {
  MeanStd out;
  out.mean = Mean(xs);
  out.std = StdDev(xs);
  return out;
}

}  // namespace otfair::stats
