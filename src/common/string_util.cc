#include "common/string_util.h"

#include <array>
#include <charconv>
#include <cctype>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "common/simd.h"

namespace otfair::common {
namespace {

/// 5^q for q in [0, 32]. 5^32 < 2^75, so m·5^q with m < 2^53 fits in 128 bits.
constexpr std::array<unsigned __int128, 33> kPow5 = [] {
  std::array<unsigned __int128, 33> pow5{};
  pow5[0] = 1;
  for (size_t q = 1; q < pow5.size(); ++q) pow5[q] = pow5[q - 1] * 5;
  return pow5;
}();

/// "00", "01", ..., "99": two decimal digits per lookup.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

constexpr uint64_t kTen8 = 100000000;
constexpr uint64_t kTen16 = kTen8 * kTen8;
constexpr uint64_t kTen17 = 10 * kTen16;

/// Writes the 8 decimal digits of `value` < 10^8, zero-padded.
void Write8Digits(char* out, uint32_t value) {
  const uint32_t high = value / 10000;
  const uint32_t low = value % 10000;
  std::memcpy(out, &kDigitPairs[2 * (high / 100)], 2);
  std::memcpy(out + 2, &kDigitPairs[2 * (high % 100)], 2);
  std::memcpy(out + 4, &kDigitPairs[2 * (low / 100)], 2);
  std::memcpy(out + 6, &kDigitPairs[2 * (low % 100)], 2);
}

}  // namespace

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
  if (text.empty()) return false;
  // The kernel reads a padded copy. A longer token is never the vector
  // path's, and the scalar entry reads only [first, last).
  char padded[simd::kDecimalSlack] = {};
  const simd::Ops* ops = &simd::ScalarOps();
  const char* first = text.data();
  if (text.size() <= sizeof(padded)) {
    first = static_cast<const char*>(std::memcpy(padded, text.data(), text.size()));
    ops = &simd::Active();
  }
  const char* const last = first + text.size();
  double parsed = 0.0;
  if (ops->parse_decimal(first, last, &parsed) != last) return false;
  *value = parsed;
  return true;
}

char* AppendDouble17(char* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  // A normal |value| is m·2^e with m in [2^52, 2^53); its decimal exponent
  // is e0 = floor((e + 52)·log10 2) or e0 + 1. Zero, subnormals, inf and
  // nan land far outside q's range below.
  const int e = static_cast<int>(bits >> 52 & 0x7ff) - 1075;
  const int e0 = ((e + 52) * 78913) >> 18;
  const int q = 16 - e0;
  if (q < 0 || q > 32)
    return std::to_chars(out, out + kMaxDouble17Chars, value, std::chars_format::general, 17).ptr;

  // |value|·10^q = m·5^q·2^(e+q) lies in [10^16, 10^18): split it exactly
  // into `whole` and `rest` / 2^shift. The shift is in [-4, 73]; a
  // negative one (|value| >= 2^51) leaves a whole number.
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | uint64_t{1} << 52;
  const unsigned __int128 n = m * kPow5[q];
  const int shift = -(e + q);
  uint64_t whole = 0;
  unsigned __int128 rest = 0;
  unsigned __int128 half = 1;  // with rest = 0, never rounds up
  if (shift > 0) {
    whole = static_cast<uint64_t>(n >> shift);
    rest = n & ((static_cast<unsigned __int128>(1) << shift) - 1);
    half = static_cast<unsigned __int128>(1) << (shift - 1);
  } else {
    whole = static_cast<uint64_t>(n << -shift);
  }
  // Round to 17 significant digits, half to even, as printf does.
  int exponent = e0;
  uint64_t digits = 0;
  if (whole < kTen17) {
    digits = whole + (rest + (whole & 1) > half);
  } else {
    // One digit too many: drop it, with `rest` as the sticky bit.
    const uint64_t tenth = whole / 10;
    const uint64_t dropped = whole - 10 * tenth;
    digits = tenth + (2 * dropped + ((rest != 0) | (tenth & 1)) > 10);
    ++exponent;
  }
  if (digits == kTen17) {
    digits = kTen16;
    ++exponent;
  }

  // The 17 digits, in two independent halves, then without trailing zeros.
  char d[17];
  const uint64_t high = digits / kTen8;
  d[0] = static_cast<char>('0' + high / kTen8);
  Write8Digits(d + 1, static_cast<uint32_t>(high % kTen8));
  Write8Digits(d + 9, static_cast<uint32_t>(digits % kTen8));
  int len = 17;
  while (d[len - 1] == '0') --len;

  // %g layout. Whole blocks are copied and the end pointer set after, so
  // bytes past the end may be scratch (still inside kMaxDouble17Chars).
  *out = '-';
  out += bits >> 63;
  if (exponent >= 0 && exponent < 17) {
    std::memcpy(out, d, 17);
    std::memcpy(out + exponent + 2, d + exponent + 1, static_cast<size_t>(16 - exponent));
    out[exponent + 1] = '.';
    return out + (len > exponent + 1 ? len + 1 : exponent + 1);
  }
  if (exponent >= -4 && exponent < 0) {
    std::memcpy(out, "0.000", 5);
    std::memcpy(out + 1 - exponent, d, 17);
    return out + 1 - exponent + len;
  }
  out[0] = d[0];
  out[1] = '.';
  std::memcpy(out + 2, d + 1, 16);
  out += len > 1 ? len + 1 : 1;
  // %g writes at least two exponent digits; here |exponent| <= 18.
  out[0] = 'e';
  out[1] = exponent < 0 ? '-' : '+';
  std::memcpy(out + 2, &kDigitPairs[2 * (exponent < 0 ? -exponent : exponent)], 2);
  return out + 4;
}

}  // namespace otfair::common
