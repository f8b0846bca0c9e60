#ifndef OTFAIR_COMMON_FLAGS_H_
#define OTFAIR_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace otfair::common {

/// Minimal command-line flag parser for examples and experiment binaries.
///
/// Accepts `--name=value`, `--name value`, and boolean `--name`. Anything
/// not starting with `--` is collected as a positional argument. `-` and
/// `_` spell the same flag (`--net-threads` is `--net_threads`), both on
/// the command line and in the names passed to the getters and Validate;
/// when a command line gives one flag twice, the later value wins.
///
/// Values parse strictly: a value must be the whole token. GetInt and
/// GetUint64 take a decimal integer in their type's range (GetUint64 no
/// sign), GetIntList a comma list of such ints, GetDouble a finite decimal
/// in ParseFiniteDecimal's grammar, and GetBool one of
/// true/false/1/0/yes/no/on/off. On a malformed value a getter prints
/// `error: --<name>: '<value>' is not a valid <kind>` and exits 2, the
/// usage-error status, so a program reads its flags before any work.
/// Typical use:
///
///     FlagParser flags(argc, argv);
///     int trials = flags.GetInt("trials", 50);
///     uint64_t seed = flags.GetUint64("seed", 42);
///     if (!flags.Validate({"trials", "seed"}).ok()) { ... }
class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name, const std::string& default_value) const;
  int GetInt(const std::string& name, int default_value) const;
  uint64_t GetUint64(const std::string& name, uint64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Comma-separated list of ints, e.g. `--sizes=25,50,100`.
  std::vector<int> GetIntList(const std::string& name, const std::vector<int>& default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

  /// Returns InvalidArgument if any flag on the command line is not in
  /// `known`; guards against typos in experiment invocations. The message
  /// names the flag as it was typed.
  Status Validate(const std::vector<std::string>& known) const;

 private:
  /// The flag's value, or null when the command line does not give it.
  const std::string* Find(const std::string& name) const;

  std::string program_name_;
  /// Keyed by canonical name (every `-` replaced by `_`).
  std::map<std::string, std::string> values_;
  /// Flag names as typed, for Validate's message.
  std::set<std::string> typed_names_;
  std::vector<std::string> positional_;
};

}  // namespace otfair::common

#endif  // OTFAIR_COMMON_FLAGS_H_
