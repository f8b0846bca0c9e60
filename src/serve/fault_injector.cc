#include "serve/fault_injector.h"

#include <cstdlib>

#include "common/string_util.h"

namespace otfair::serve {

using common::Result;
using common::Status;

namespace {

const char* const kFaultNames[kFaultCount] = {
    "redesign_throw",
    "redesign_timeout",
    "invalid_plan",
    "slow_sketch_merge",
};

bool LookupFault(const std::string& name, Fault* out) {
  for (int i = 0; i < kFaultCount; ++i) {
    if (name == kFaultNames[i]) {
      *out = static_cast<Fault>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

std::string FaultName(Fault fault) { return kFaultNames[static_cast<int>(fault)]; }

FaultInjector::FaultInjector(const FaultInjector& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  budget_ = other.budget_;
  fired_ = other.fired_;
}

FaultInjector& FaultInjector::operator=(const FaultInjector& other) {
  if (this == &other) return *this;
  // Consistent order is irrelevant here: injectors are configured before
  // the threads that consult them start, so assignment never races a
  // ShouldInject on `other` in practice — but lock both for safety.
  std::scoped_lock lock(mu_, other.mu_);
  budget_ = other.budget_;
  fired_ = other.fired_;
  return *this;
}

Result<FaultInjector> FaultInjector::Parse(const std::string& spec) {
  FaultInjector injector;
  if (spec.empty()) return injector;
  size_t entries = 0;
  for (const std::string& raw : common::Split(spec, ',')) {
    const std::string entry(common::Trim(raw));
    if (entry.empty()) continue;
    ++entries;
    const size_t colon = entry.find(':');
    const std::string name = entry.substr(0, colon);
    Fault fault;
    if (!LookupFault(name, &fault))
      return Status::InvalidArgument("unknown fault '" + name +
                                     "' (expected redesign_throw, redesign_timeout, "
                                     "invalid_plan, or slow_sketch_merge)");
    int64_t budget = -1;  // bare name: unlimited
    if (colon != std::string::npos) {
      const std::string count = entry.substr(colon + 1);
      char* end = nullptr;
      const long long v = std::strtoll(count.c_str(), &end, 10);
      if (count.empty() || end == count.c_str() || *end != '\0' || v <= 0)
        return Status::InvalidArgument("bad fault count in '" + entry +
                                       "' (expected name:positive_count)");
      budget = v;
    }
    injector.budget_[static_cast<int>(fault)] = budget;
  }
  // A non-empty spec that names no fault (e.g. ",") is a mistake, and a
  // silently inactive injector is exactly the failure mode the strict
  // parser exists to prevent.
  if (entries == 0)
    return Status::InvalidArgument("fault spec '" + spec + "' names no fault");
  return injector;
}

Result<FaultInjector> FaultInjector::FromEnv() {
  const char* env = std::getenv("OTFAIR_FAULTS");
  return Parse(env == nullptr ? std::string() : std::string(env));
}

bool FaultInjector::ShouldInject(Fault fault) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t& budget = budget_[static_cast<int>(fault)];
  if (budget == 0) return false;
  if (budget > 0) --budget;
  ++fired_[static_cast<int>(fault)];
  return true;
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int64_t b : budget_)
    if (b != 0) return true;
  return false;
}

uint64_t FaultInjector::fired(Fault fault) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_[static_cast<int>(fault)];
}

}  // namespace otfair::serve
