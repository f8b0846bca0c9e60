// libFuzzer differential harness for the round-trip number codec:
// ParseFiniteDecimal and the decimal reader's kernel tables
// (simd::Ops::parse_decimal) against strtod, and AppendDouble17 against
// printf("%.17g"). Any trap is a finding:
//
//   1. ParseFiniteDecimal reads the token from a heap copy of exactly its
//      size, so a read past the token traps under ASan. A token it accepts
//      reads to a finite value, and strtod also reads it in full, to the
//      same bits;
//   2. a token strtod reads in full but ParseFiniteDecimal rejects falls
//      in one of the grammar's deliberate exclusions (see Excluded);
//   3. ScalarOps() and BestOps() read the token as data::ReadCsv calls
//      them: from the start of a heap buffer that holds the token, then
//      filler digits, and ends simd::kDecimalSlack bytes from its start
//      (or at the token's end, if later), so an over-read traps under ASan.
//      Both end at the same byte with the same bits, and they end at the
//      token's end exactly when ParseFiniteDecimal accepts it;
//   4. the first 8 bytes of the input, read as a finite double, format
//      exactly as %.17g and parse back to the same bits; so do the same
//      bytes with the exponent folded into the binades AppendDouble17's
//      exact integer kernel covers, which random bytes reach ~5% of the
//      time.
//
// Build (needs Clang; the target is skipped under GCC):
//   cmake -B build-fuzz -DCMAKE_CXX_COMPILER=clang++ -DOTFAIR_BUILD_FUZZERS=ON
//   cmake --build build-fuzz --target otfair_decimal_fuzzer
// Run with the token dictionary:
//   build-fuzz/tests/fuzz/otfair_decimal_fuzzer -dict=tests/fuzz/decimal.dict

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "common/simd.h"
#include "common/string_util.h"

namespace {

using otfair::common::AppendDouble17;
using otfair::common::kMaxDouble17Chars;
using otfair::common::ParseFiniteDecimal;

/// True when strtod's full reading of `token` (to `value`, with `error`
/// its errno) is one the grammar rejects on purpose.
bool Excluded(const std::string& token, double value, int error) {
  // strtod skips leading whitespace; callers trim or split it away first.
  if (std::isspace(static_cast<unsigned char>(token[0]))) return true;
  // inf/nan spellings, and decimals that overflow to infinity.
  if (!std::isfinite(value)) return true;
  // A nonzero decimal that rounds to zero.
  if (value == 0.0 && error == ERANGE) return true;
  // Hex floats.
  const size_t digits = token[0] == '+' || token[0] == '-' ? 1 : 0;
  return token.size() > digits + 1 && token[digits] == '0' &&
         (token[digits + 1] == 'x' || token[digits + 1] == 'X');
}

void CheckToken(const uint8_t* data, size_t size) {
  const std::string token(reinterpret_cast<const char*>(data), size);
  const std::unique_ptr<char[]> exact(new char[size]);
  if (size > 0) std::memcpy(exact.get(), data, size);
  double ours = 0.0;
  const bool accepted = ParseFiniteDecimal(std::string_view(exact.get(), size), &ours);

  const size_t padded_size = std::max(size, otfair::common::simd::kDecimalSlack);
  const std::unique_ptr<char[]> padded(new char[padded_size]);
  std::memset(padded.get(), '9', padded_size);
  if (size > 0) std::memcpy(padded.get(), data, size);
  const char* const first = padded.get();
  double scalar = 0.0;
  double best = 0.0;
  const char* const scalar_end =
      otfair::common::simd::ScalarOps().parse_decimal(first, first + size, &scalar);
  const char* const best_end =
      otfair::common::simd::BestOps().parse_decimal(first, first + size, &best);
  if (scalar_end != best_end ||
      (scalar_end != nullptr && std::memcmp(&scalar, &best, sizeof(scalar)) != 0) ||
      accepted != (scalar_end == first + size) ||
      (accepted && std::memcmp(&scalar, &ours, sizeof(ours)) != 0))
    __builtin_trap();

  errno = 0;
  char* end = nullptr;
  const double reference = std::strtod(token.c_str(), &end);
  const int error = errno;
  const bool reference_accepted = size > 0 && end == token.c_str() + size;
  if (accepted && (!std::isfinite(ours) || !reference_accepted ||
                   std::memcmp(&ours, &reference, sizeof(ours)) != 0))
    __builtin_trap();
  if (!accepted && reference_accepted && !Excluded(token, reference, error)) __builtin_trap();
}

void CheckDouble(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  if (!std::isfinite(value)) return;
  char printed[32];
  const int n = std::snprintf(printed, sizeof(printed), "%.17g", value);
  char buf[kMaxDouble17Chars];
  const std::string_view formatted(buf, static_cast<size_t>(AppendDouble17(buf, value) - buf));
  if (formatted != std::string_view(printed, static_cast<size_t>(n))) __builtin_trap();
  double parsed = 0.0;
  if (!ParseFiniteDecimal(formatted, &parsed) ||
      std::memcmp(&parsed, &value, sizeof(value)) != 0)
    __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  CheckToken(data, size);
  if (size >= sizeof(double)) {
    uint64_t bits = 0;
    std::memcpy(&bits, data, sizeof(bits));
    CheckDouble(bits);
    // Biased exponents 970..1079: 2^-53 <= |value| < 2^57.
    constexpr uint64_t kExponentMask = uint64_t{0x7ff} << 52;
    CheckDouble((bits & ~kExponentMask) | (970 + (bits >> 52 & 0x7ff) % 110) << 52);
  }
  return 0;
}
