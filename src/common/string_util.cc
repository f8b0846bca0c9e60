#include "common/string_util.h"

#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace otfair::common {

std::vector<std::string> Split(const std::string& input, char delimiter) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : input) {
    if (c == delimiter) {
      tokens.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  tokens.push_back(current);
  return tokens;
}

std::string Join(const std::vector<std::string>& tokens, const std::string& delimiter) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i) out += delimiter;
    out += tokens[i];
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) --end;
  return input.substr(begin, end - begin);
}

bool StartsWith(const std::string& input, const std::string& prefix) {
  return input.size() >= prefix.size() && input.compare(0, prefix.size(), prefix) == 0;
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool ParseFiniteDecimal(std::string_view text, double* value) {
  const char* first = text.data();
  const char* const last = first + text.size();
  // from_chars takes no '+'; strtod takes one, but not before another sign.
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return false;
  }
  double parsed = 0.0;
  const auto [end, error] = std::from_chars(first, last, parsed);
  if (error != std::errc() || end != last || !std::isfinite(parsed)) return false;
  *value = parsed;
  return true;
}

char* AppendDouble17(char* out, double value) {
  return std::to_chars(out, out + kMaxDouble17Chars, value, std::chars_format::general, 17).ptr;
}

}  // namespace otfair::common
