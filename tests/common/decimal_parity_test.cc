// Parity of the decimal reader's kernel tables (simd::Ops::parse_decimal)
// with each other and with strtod, over 10.25M generated tokens.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "common/string_util.h"

namespace otfair::common::simd {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Reads tokens through ScalarOps() and BestOps() as data::ReadCsv calls
/// them, from the start of a heap buffer that ends kDecimalSlack bytes past
/// the token's start (or just past its terminator), so an over-read traps
/// under ASan, and through ParseFiniteDecimal. A token is followed by one
/// of ' ', ',', '\r', '\t' or the end of the buffer, in turn, and then by
/// filler ('7', '.', 'e' or '0') that must not be read as part of it. The
/// two tables must end at the same byte with the same bits;
/// ParseFiniteDecimal must accept exactly the tokens they read to their
/// end, which are exactly the decimal tokens strtod reads in full to a
/// finite value (not one underflowed to zero), and to strtod's bits.
class Parity {
 public:
  /// `decimal`: strtod must read all of `token` (every generated token).
  void Check(const std::string& token, bool decimal = true) {
    static constexpr char kTerminators[] = {'\0', ' ', ',', '\r', '\t'};
    static constexpr char kFillers[] = {'7', '.', 'e', '0'};
    const char terminator = kTerminators[checked_ % 5];
    const size_t used = token.size() + (terminator != '\0');
    const size_t size = std::max(used, kDecimalSlack);
    const std::unique_ptr<char[]> buffer(new char[size]);
    std::memset(buffer.get(), kFillers[checked_ / 5 % 4], size);
    std::memcpy(buffer.get(), token.data(), token.size());
    if (terminator != '\0') buffer[token.size()] = terminator;
    const char* const first = buffer.get();
    const char* const token_end = first + token.size();
    const char* const last = first + used;
    ++checked_;

    errno = 0;
    char* reference_end = nullptr;
    const double reference = std::strtod(token.c_str(), &reference_end);
    const bool whole = !token.empty() && reference_end == token.c_str() + token.size();
    const bool expected = whole && std::isfinite(reference) &&
                          !(reference == 0.0 && errno == ERANGE) &&
                          token.find_first_of("xX") == std::string::npos;

    double scalar = 0.0;
    double best = 0.0;
    double checked = 0.0;
    const char* const scalar_end = ScalarOps().parse_decimal(first, last, &scalar);
    const char* const best_end = BestOps().parse_decimal(first, last, &best);
    const bool accepted = ParseFiniteDecimal(token, &checked);
    const bool ok = (whole || !decimal) && scalar_end == best_end &&
                    (scalar_end == nullptr || Bits(scalar) == Bits(best)) &&
                    accepted == expected && accepted == (scalar_end == token_end) &&
                    (!accepted || (Bits(scalar) == Bits(reference) && Bits(checked) == Bits(reference)));
    if (!ok && ++mismatches_ <= 10) {
      ADD_FAILURE() << "'" << token << "' then byte " << static_cast<int>(terminator)
                    << ": strtod " << reference << (expected ? "" : " (not accepted)")
                    << ", scalar ends at " << (scalar_end ? scalar_end - first : -1)
                    << ", best ends at " << (best_end ? best_end - first : -1)
                    << ", bits scalar/best/strtod " << Bits(scalar) << "/" << Bits(best) << "/"
                    << Bits(reference);
    }
  }

  /// %.17g, as the CSV writer prints it.
  void CheckDouble17(double value) {
    char buf[kMaxDouble17Chars];
    Check(std::string(buf, AppendDouble17(buf, value)));
  }

  void CheckPrintf(const char* format, int precision, double value) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), format, precision, value);
    Check(buf);
  }

  size_t checked() const { return checked_; }
  size_t mismatches() const { return mismatches_; }

 private:
  size_t checked_ = 0;
  size_t mismatches_ = 0;
};

/// One of "", "-" and "+" before an unsigned token.
std::string Signed(Rng& rng, const std::string& digits) {
  static const char* const kSigns[] = {"", "-", "+"};
  std::string token = kSigns[rng.UniformInt(3)];
  return token += digits;
}

/// A random finite double whose biased exponent lies in [lo, hi].
double RandomInBinades(Rng& rng, uint64_t lo, uint64_t hi) {
  const uint64_t bits = rng.Next64();
  const uint64_t exponent = lo + rng.UniformInt(hi - lo + 1);
  return FromBits((bits & ~(uint64_t{0x7ff} << 52)) | exponent << 52);
}

TEST(DecimalParityTest, EdgeTokens) {
  Parity parity;
  for (const char* token :
       {"0", "-0", "+0", "0.", ".0", "-.0", "0.000", "000", "1", "-1", "+1", "1.", ".5", "-.5",
        "+.5", "00012", "0012.50", "1.5", "9007199254740993", "9007199254740992.5",
        "9999999999999999999", "10000000000000000000", "18446744073709551615",
        "18446744073709551616", "1234567890123456789", "12345678901234567890",
        "0.1", "0.30000000000000004", "-1.2345678901234567", "0.012345678901234567",
        "0.0012345678901234567", "0.00012345678901234567", "0.000000000000000000000000000001",
        "0.0000000000000000000000000000001", "1234567890123456789012345678901",
        "12345678901234567890123456789012", "1e5", "1.e5", "1e", "1E+5", "-2.5e-3",
        "1.7976931348623157e308", "4.9406564584124654e-324", "2.2250738585072014e-308",
        "1e400", "-1e400", "1e-400", "0e999999", "1.5.2", "+-1", "-+1", "--1", "-", "+", ".",
        "", "abc", "inf", "-nan", "0x1p3", "1 2", "1,5", "1\r"}) {
    parity.Check(token, /*decimal=*/false);
  }
  EXPECT_EQ(parity.mismatches(), 0u);
}

TEST(DecimalParityTest, RandomBitPatternsAsG) {
  Parity parity;
  Rng rng(501);
  for (int i = 0; i < 1000000; ++i) {
    const double value = FromBits(rng.Next64());
    if (std::isfinite(value)) parity.CheckDouble17(value);
  }
  for (int i = 0; i < 1000000; ++i) {
    const double value = FromBits(rng.Next64());
    if (std::isfinite(value)) parity.CheckPrintf("%.*g", 1 + static_cast<int>(i % 17), value);
  }
  EXPECT_GE(parity.checked(), 1990000u);
  EXPECT_EQ(parity.mismatches(), 0u);
}

TEST(DecimalParityTest, RandomBitPatternsAsF) {
  Parity parity;
  Rng rng(505);
  // %f of the full range runs to 330 characters, so most patterns have
  // their exponent folded into 1e-32..1e38 first.
  for (int i = 0; i < 50000; ++i) {
    const double value = FromBits(rng.Next64());
    if (std::isfinite(value)) parity.CheckPrintf("%.*f", static_cast<int>(i % 21), value);
  }
  for (int i = 0; i < 1200000; ++i)
    parity.CheckPrintf("%.*f", static_cast<int>(i % 21), RandomInBinades(rng, 917, 1150));
  EXPECT_GE(parity.checked(), 1240000u);
  EXPECT_EQ(parity.mismatches(), 0u);
}

TEST(DecimalParityTest, NormalValues) {
  Parity parity;
  Rng rng(502);
  for (int i = 0; i < 2000000; ++i) parity.CheckDouble17(rng.Normal());
  for (int i = 0; i < 1000000; ++i)
    parity.CheckPrintf("%.*g", 1 + static_cast<int>(i % 17), rng.Normal());
  EXPECT_GE(parity.checked(), 3000000u);
  EXPECT_EQ(parity.mismatches(), 0u);
}

TEST(DecimalParityTest, IntegersAndTies) {
  Parity parity;
  Rng rng(503);
  // Integers of 1 to 20 digits.
  for (int i = 0; i < 1000000; ++i) {
    const int digits = 1 + static_cast<int>(i % 20);
    std::string token(1, static_cast<char>('1' + rng.UniformInt(9)));
    for (int k = 1; k < digits; ++k) token += static_cast<char>('0' + rng.UniformInt(10));
    parity.Check(Signed(rng, token));
  }
  // t / 2^k for odd t in [2^53, 2^54) and k in [0, 4], written out
  // exactly, lies halfway between two doubles; the decimals one unit in
  // the last digit either side of it lie just off the tie.
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t t = uint64_t{1} << 53 | rng.Next64() >> 11 | 1;
    const int k = static_cast<int>(i % 5);
    uint64_t n = t;
    for (int j = 0; j < k; ++j) n *= 5;  // t·5^k < 2^54·625 < 2^64
    const uint64_t neighbour = n + (i % 3 == 0 ? 0 : i % 3 == 1 ? 1 : static_cast<uint64_t>(-1));
    std::string token = std::to_string(neighbour);
    if (k > 0) token.insert(token.end() - k, '.');
    parity.Check(Signed(rng, token));
  }
  EXPECT_GE(parity.checked(), 2000000u);
  EXPECT_EQ(parity.mismatches(), 0u);
}

TEST(DecimalParityTest, LeadingZeroFractions) {
  Parity parity;
  Rng rng(504);
  // "0." (or ".", or "000.") then 0..28 zeros and 1..20 digits.
  static const char* const kWhole[] = {"0.", ".", "000."};
  for (int i = 0; i < 2000000; ++i) {
    std::string token = kWhole[i % 3 == 0 ? 0 : rng.UniformInt(3)];
    token.append(rng.UniformInt(29), '0');
    const int digits = 1 + static_cast<int>(rng.UniformInt(20));
    for (int k = 0; k < digits; ++k) token += static_cast<char>('0' + rng.UniformInt(10));
    parity.Check(Signed(rng, token));
  }
  EXPECT_GE(parity.checked(), 2000000u);
  EXPECT_EQ(parity.mismatches(), 0u);
}

}  // namespace
}  // namespace otfair::common::simd
