#ifndef OTFAIR_SERVE_FAULT_INJECTOR_H_
#define OTFAIR_SERVE_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/result.h"

namespace otfair::serve {

/// Failure modes the self-heal path can be forced through. Each names one
/// seam in the redesign pipeline; see Redesigner for where they fire.
enum class Fault : int {
  /// AttemptRedesign fails outright before designing (models a designer
  /// crash / thrown exception surfaced as a Status).
  kRedesignThrow = 0,
  /// The redesign sleeps past its deadline, exercising the cooperative
  /// timeout (late results are discarded, never installed).
  kRedesignTimeout = 1,
  /// The candidate plan is reported invalid at validation, exercising the
  /// reject-and-keep-serving path.
  kInvalidPlan = 2,
  /// Sketch snapshot/merge is artificially slowed (20 ms per injection),
  /// exercising deadline pressure from the stats side.
  kSlowSketchMerge = 3,
};
inline constexpr int kFaultCount = 4;

/// Runtime fault injection for the serving self-heal path. Compiled in
/// always (no ifdef'd test-only seams); disabled by default and armed via a
/// spec string from `ServiceOptions::faults` (the CLI `--faults` flag) or,
/// when that is empty, the `OTFAIR_FAULTS` environment variable.
///
/// Spec syntax: comma-separated `name` or `name:count` entries, e.g.
/// `"redesign_throw"` (fires every time) or `"redesign_throw:2,invalid_plan:1"`
/// (fires the first N opportunities, then disarms). Names: redesign_throw,
/// redesign_timeout, invalid_plan, slow_sketch_merge. Unknown names are a
/// parse error — a typo must not silently disable a fault leg.
///
/// `ShouldInject` is thread-safe and consumes one unit of a counted budget
/// per true return.
class FaultInjector {
 public:
  /// Inactive injector (every ShouldInject returns false).
  FaultInjector() = default;

  FaultInjector(const FaultInjector& other);
  FaultInjector& operator=(const FaultInjector& other);

  /// Parses a spec string (see class comment). Empty spec = inactive.
  static common::Result<FaultInjector> Parse(const std::string& spec);

  /// Parses `OTFAIR_FAULTS` from the environment; unset/empty = inactive.
  /// A malformed env spec is an error (surfaced, not ignored).
  static common::Result<FaultInjector> FromEnv();

  /// True if the fault is armed; consumes one unit of a counted budget.
  bool ShouldInject(Fault fault);

  /// True if any fault is still armed.
  bool armed() const;

  /// Times ShouldInject returned true for `fault` (for tests/logging).
  uint64_t fired(Fault fault) const;

 private:
  mutable std::mutex mu_;
  /// Remaining budget per fault: 0 = disarmed, -1 = unlimited.
  std::array<int64_t, kFaultCount> budget_{};
  std::array<uint64_t, kFaultCount> fired_{};
};

/// The spec name for a fault (inverse of the parser's table).
std::string FaultName(Fault fault);

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_FAULT_INJECTOR_H_
