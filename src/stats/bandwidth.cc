#include "stats/bandwidth.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/descriptive.h"

namespace otfair::stats {

namespace {
// Bandwidth used when the sample carries no spread at all; keeps the KDE a
// proper (if narrow) density instead of a delta.
constexpr double kDegenerateBandwidth = 1e-3;

// Zero spread, decided on the samples themselves: StdDev of 150 copies of
// 1.7 is 4.7e-15 (rounding in the mean), not 0, and would give h ~ 1e-15.
bool AllEqual(const std::vector<double>& samples) {
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  return *lo == *hi;
}
}  // namespace

double SilvermanBandwidth(const std::vector<double>& samples, double grid_step) {
  OTFAIR_CHECK(!samples.empty());
  if (AllEqual(samples)) return std::max(kDegenerateBandwidth, grid_step / 8.0);
  const double n = static_cast<double>(samples.size());
  const double sigma = StdDev(samples);
  const double iqr = Iqr(samples);
  double scale = std::min(sigma, iqr / 1.34);
  if (scale <= 0.0) scale = sigma;  // robust scale collapsed
  if (scale <= 0.0) return kDegenerateBandwidth;  // spread underflowed
  return 0.9 * scale * std::pow(n, -0.2);
}

double ScottBandwidth(const std::vector<double>& samples) {
  OTFAIR_CHECK(!samples.empty());
  const double sigma = StdDev(samples);
  if (AllEqual(samples) || sigma <= 0.0) return kDegenerateBandwidth;
  return sigma * std::pow(static_cast<double>(samples.size()), -0.2);
}

}  // namespace otfair::stats
