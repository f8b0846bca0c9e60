#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace otfair::common {

namespace {

/// The one spelling rule: `-` and `_` name the same flag.
std::string Canonical(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// A malformed value is a usage error: reported and exit 2, like a
/// missing required flag, before the command does any work.
[[noreturn]] void BadValue(const std::string& name, const std::string& value, const char* kind) {
  std::fprintf(stderr, "error: --%s: '%s' is not a valid %s\n", name.c_str(), value.c_str(),
               kind);
  std::exit(2);
}

/// Reads all of `text` as a decimal integer in T's range (a '-' only for
/// signed T; no '+', no whitespace).
template <typename T>
bool ParseWholeInteger(const std::string& text, T* value) {
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, *value);
  return error == std::errc() && end == last;
}

}  // namespace

FlagParser::FlagParser(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string value = "true";  // bare boolean flag
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    values_[Canonical(arg)] = std::move(value);
    typed_names_.insert(std::move(arg));
  }
}

const std::string* FlagParser::Find(const std::string& name) const {
  auto it = values_.find(Canonical(name));
  return it == values_.end() ? nullptr : &it->second;
}

bool FlagParser::Has(const std::string& name) const { return Find(name) != nullptr; }

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* value = Find(name);
  return value == nullptr ? default_value : *value;
}

int FlagParser::GetInt(const std::string& name, int default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  int parsed = 0;
  if (!ParseWholeInteger(*value, &parsed)) BadValue(name, *value, "integer");
  return parsed;
}

uint64_t FlagParser::GetUint64(const std::string& name, uint64_t default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  uint64_t parsed = 0;
  if (!ParseWholeInteger(*value, &parsed)) BadValue(name, *value, "unsigned integer");
  return parsed;
}

double FlagParser::GetDouble(const std::string& name, double default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  double parsed = 0.0;
  if (!ParseFiniteDecimal(*value, &parsed)) BadValue(name, *value, "finite decimal");
  return parsed;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  BadValue(name, v, "boolean");
}

std::vector<int> FlagParser::GetIntList(const std::string& name,
                                        const std::vector<int>& default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  std::vector<int> out;
  for (const std::string& tok : Split(*value, ',')) {
    int parsed = 0;
    if (!ParseWholeInteger(tok, &parsed)) BadValue(name, *value, "integer list");
    out.push_back(parsed);
  }
  return out;
}

Status FlagParser::Validate(const std::vector<std::string>& known) const {
  for (const std::string& name : typed_names_) {
    const std::string canonical = Canonical(name);
    if (std::none_of(known.begin(), known.end(),
                     [&](const std::string& k) { return Canonical(k) == canonical; }))
      return Status::InvalidArgument("unknown flag --" + name);
  }
  return Status::Ok();
}

}  // namespace otfair::common
