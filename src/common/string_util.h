#ifndef OTFAIR_COMMON_STRING_UTIL_H_
#define OTFAIR_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace otfair::common {

/// Splits `input` on `delimiter`, keeping empty tokens ("a,,b" -> 3 tokens).
std::vector<std::string> Split(const std::string& input, char delimiter);

/// Joins tokens with `delimiter`.
std::string Join(const std::vector<std::string>& tokens, const std::string& delimiter);

/// Removes leading and trailing ASCII whitespace; the result views `input`.
std::string_view Trim(std::string_view input);

/// True if `input` begins with `prefix`.
bool StartsWith(const std::string& input, const std::string& prefix);

/// Formats a double with `precision` significant decimal places (fixed).
std::string FormatDouble(double value, int precision = 4);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// The round-trip number format shared by the CSV files, the serving
// protocol and the metrics exposition: values are written as %.17g and
// read back with ParseFiniteDecimal, which gives the same bits.

/// Parses all of `text` as a finite decimal number: an optional sign,
/// digits with an optional '.', and an optional exponent. Whitespace, hex,
/// inf/nan spellings, values that overflow and nonzero values that round
/// to zero are rejected; subnormals are accepted. An accepted token reads
/// to the bits strtod gives it.
///
/// This grammar has one reader, the kernel entry simd::Ops::parse_decimal
/// (through simd::Active()), which reads a number at the start of a
/// buffer and returns where it ends. That entry may read the
/// simd::kDecimalSlack (96) bytes from a token's start even when the token
/// is shorter, so a caller that hands it a buffer must own those bytes:
/// data::ReadCsv's line buffer carries them past its end. This function
/// copies `text` into such a buffer first and never reads past `text`.
bool ParseFiniteDecimal(std::string_view text, double* value);

/// The longest %.17g rendering of a double ("-2.2250738585072009e-308").
inline constexpr size_t kMaxDouble17Chars = 24;

/// Writes `value` exactly as printf("%.17g") would, with no terminator,
/// into `out`, which must have room for kMaxDouble17Chars bytes (bytes
/// past the returned end may be overwritten). Returns one past the last
/// byte written.
///
/// A normal double with 2^-53 <= |value| < 2^57 (about 1.1e-16 to
/// 1.4e17, biased exponents 970..1079) takes an exact integer path: with
/// |value| = m·2^e and q = 16 - floor((e + 52)·log10 2) in [0, 32], the
/// product m·5^q fits in 128 bits, and one shift splits |value|·10^q into
/// its integer part and exact remainder, which round half to even to the
/// 17 digits. Zero, subnormals, other magnitudes, inf and nan go through
/// std::to_chars(general, 17). Both paths print the same bytes.
char* AppendDouble17(char* out, double value);

}  // namespace otfair::common

#endif  // OTFAIR_COMMON_STRING_UTIL_H_
