#include "common/simd.h"

#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

#if defined(__x86_64__) || defined(_M_X64)
#define OTFAIR_SIMD_X86 1
#include <immintrin.h>
#endif

namespace otfair::common::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. Each vector kernel below computes exactly what
// its scalar entry here computes, so forcing the scalar table changes no
// output bit.
// ---------------------------------------------------------------------------

// The Cephes-style exp(x) both log-sum-exp kernels use (< 2 ulp over the
// finite range; clamps to 0 / +inf at the double exp under/overflow
// bounds). Range reduction: x = n*ln2 + r, exp(x) = 2^n * exp(r) with
// exp(r) approximated by the classic P/Q rational form.
constexpr double kExpLog2E = 1.4426950408889634073599;
constexpr double kExpLn2Hi = 6.93145751953125e-1;
constexpr double kExpLn2Lo = 1.42860682030941723212e-6;
constexpr double kExpP0 = 1.26177193074810590878e-4;
constexpr double kExpP1 = 3.02994407707441961300e-2;
constexpr double kExpP2 = 9.99999999999999999910e-1;
constexpr double kExpQ0 = 3.00198505138664455042e-6;
constexpr double kExpQ1 = 2.52448340349684104192e-3;
constexpr double kExpQ2 = 2.27265548208155028766e-1;
constexpr double kExpQ3 = 2.00000000000000000005e0;
constexpr double kExpMaxArg = 709.4;
constexpr double kExpMinArg = -708.39;

// One lane of _mm256_max_pd / _mm256_min_pd: the second operand unless the
// first compares greater (less), so the second on NaN or a tie.
inline double LaneMax(double a, double b) { return a > b ? a : b; }
inline double LaneMin(double a, double b) { return a < b ? a : b; }

// One lane of Avx2Exp, operation for operation.
double LaneExp(double x) {
  const bool too_hi = x > kExpMaxArg;
  const bool too_lo = x < kExpMinArg;
  x = LaneMin(LaneMax(x, kExpMinArg), kExpMaxArg);
  const double n = std::nearbyint(x * kExpLog2E);  // half to even, as _mm256_round_pd
  double r = std::fma(-n, kExpLn2Hi, x);
  r = std::fma(-n, kExpLn2Lo, r);
  const double r2 = r * r;
  double p = std::fma(kExpP0, r2, kExpP1);
  p = std::fma(p, r2, kExpP2);
  p = p * r;
  double q = std::fma(kExpQ0, r2, kExpQ1);
  q = std::fma(q, r2, kExpQ2);
  q = std::fma(q, r2, kExpQ3);
  const double e = 1.0 + (p + p) / (q - p);
  // 2^n through the exponent field; the clamps keep n in [-1022, 1023].
  const double pow2 = std::bit_cast<double>(static_cast<uint64_t>(static_cast<int64_t>(n) + 1023)
                                            << 52);
  if (too_lo) return 0.0;
  if (too_hi) return std::numeric_limits<double>::infinity();
  return e * pow2;
}

// Two-pass log-sum-exp over a difference, Avx2LseDiff a lane at a time:
// the max is subtracted first, so no exp argument exceeds 0.
double ScalarLseDiff(const double* x, const double* y, size_t n) {
  double hi = -std::numeric_limits<double>::infinity();
  size_t i = 0;
  if (n >= 4) {
    double lanes[4];
    for (size_t k = 0; k < 4; ++k) lanes[k] = x[k] - y[k];
    for (i = 4; i + 4 <= n; i += 4)
      for (size_t k = 0; k < 4; ++k) lanes[k] = LaneMax(lanes[k], x[i + k] - y[i + k]);
    hi = LaneMax(LaneMax(lanes[0], lanes[2]), LaneMax(lanes[1], lanes[3]));  // HMax
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    if (d > hi) hi = d;
  }
  if (!std::isfinite(hi)) return hi;  // all -inf (or empty): LSE is -inf
  double sums[4] = {0.0, 0.0, 0.0, 0.0};
  for (i = 0; i + 4 <= n; i += 4)
    for (size_t k = 0; k < 4; ++k) sums[k] += LaneExp((x[i + k] - y[i + k]) - hi);
  double acc = (sums[0] + sums[2]) + (sums[1] + sums[3]);  // HAdd
  for (; i < n; ++i) acc += std::exp((x[i] - y[i]) - hi);
  return hi + std::log(acc);
}

// out[kDir * m] += e * g^m * G[m] for m in [0, count): one sample's outward
// KDE walk from one bracket point. g^m runs in four interleaved sub-chains
// of stride g^4, so consecutive terms do not wait on each other's multiply.
template <int kDir>
void Walk(double e, double g, const double* G, size_t count, double* out) {
  const double g2 = g * g;
  const double g4 = g2 * g2;
  double c[4] = {e, e * g, e * g2, e * g * g2};
  size_t m = 0;
  auto add = [&](size_t k) { out[kDir * static_cast<ptrdiff_t>(m + k)] += c[k] * G[m + k]; };
  for (; m + 4 <= count; m += 4) {
    for (size_t k = 0; k < 4; ++k) add(k);
    for (size_t k = 0; k < 4; ++k) c[k] *= g4;
  }
  for (size_t k = 0; m + k < count; ++k) add(k);
}

void ScalarKdeWalks(const KdeWalk& right, const KdeWalk& left, const double* G) {
  Walk<1>(right.e, right.g, G, right.count, right.out);
  Walk<-1>(left.e, left.g, G, left.count, left.out);
}

constexpr uint32_t kCrcPolynomial = 0xEDB88320u;

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrcPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

// Little-endian load, independent of the host byte order.
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint32_t ScalarCrc32Update(uint32_t crc, const unsigned char* bytes, size_t len) {
  const CrcTables& t = kCrcTables;
  for (; len >= 8; bytes += 8, len -= 8) {
    const uint32_t a = Load32(bytes) ^ crc;
    const uint32_t b = Load32(bytes + 4);
    crc = t[7][a & 0xFFu] ^ t[6][(a >> 8) & 0xFFu] ^ t[5][(a >> 16) & 0xFFu] ^ t[4][a >> 24] ^
          t[3][b & 0xFFu] ^ t[2][(b >> 8) & 0xFFu] ^ t[1][(b >> 16) & 0xFFu] ^ t[0][b >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

// std::from_chars, which libstdc++ answers with fast_float (Lemire, "Number
// Parsing at a Gigabyte per Second", SPE 2021) and a big-number fallback,
// so every token reads correctly rounded.
const char* ScalarParseDecimal(const char* first, const char* last, double* value) {
  // from_chars takes no '+'; strtod takes one, but not before another sign.
  if (first != last && *first == '+') {
    ++first;
    if (first != last && *first == '-') return nullptr;
  }
  double parsed = 0.0;
  const auto [end, error] = std::from_chars(first, last, parsed);
  if (error != std::errc() || !std::isfinite(parsed)) return nullptr;
  *value = parsed;
  return end;
}

size_t ScalarTransport(const TransportChannel& channel, const TransportRecords& records) {
  size_t fallbacks = 0;
  for (size_t t = 0; t < records.count; ++t) {
    Rng rng = Rng::FromState({records.state[0][t], records.state[1][t], records.state[2][t],
                              records.state[3][t]});
    records.out[t] =
        TransportRecord(channel, records.lower[t], records.tau[t], records.x[t], rng, fallbacks);
    for (size_t w = 0; w < 4; ++w) records.state[w][t] = rng.State()[w];
  }
  return fallbacks;
}

constexpr Ops kScalarOps = {
    "scalar",          ScalarLseDiff,      ScalarKdeWalks,
    ScalarCrc32Update, ScalarParseDecimal, ScalarTransport,
};

#if defined(OTFAIR_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels. Compiled with per-function target attributes so the
// default (no -mavx2) build still contains them; dispatch checks
// __builtin_cpu_supports("avx2") before installing this table.
// ---------------------------------------------------------------------------

#define OTFAIR_AVX2 __attribute__((target("avx2,fma")))

OTFAIR_AVX2 inline double HAdd(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(lo) + _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
}

OTFAIR_AVX2 inline double HMax(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_max_pd(lo, hi);
  const double a = _mm_cvtsd_f64(lo);
  const double b = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  return a > b ? a : b;
}

// LaneExp four lanes wide; its std::fma calls are the fused intrinsics.
OTFAIR_AVX2 inline __m256d Avx2Exp(__m256d x) {
  const __m256d max_arg = _mm256_set1_pd(kExpMaxArg);
  const __m256d min_arg = _mm256_set1_pd(kExpMinArg);
  const __m256d too_hi = _mm256_cmp_pd(x, max_arg, _CMP_GT_OQ);
  const __m256d too_lo = _mm256_cmp_pd(x, min_arg, _CMP_LT_OQ);
  x = _mm256_min_pd(_mm256_max_pd(x, min_arg), max_arg);

  // n = round(x * log2(e)); r = x - n*ln2 in two pieces for accuracy.
  const __m256d n = _mm256_round_pd(_mm256_mul_pd(x, _mm256_set1_pd(kExpLog2E)),
                                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kExpLn2Hi), x);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kExpLn2Lo), r);

  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_fmadd_pd(_mm256_set1_pd(kExpP0), r2, _mm256_set1_pd(kExpP1));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(kExpP2));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_fmadd_pd(_mm256_set1_pd(kExpQ0), r2, _mm256_set1_pd(kExpQ1));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(kExpQ2));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(kExpQ3));
  // exp(r) = 1 + 2p/(q - p)
  __m256d e = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_div_pd(_mm256_add_pd(p, p), _mm256_sub_pd(q, p)));

  // Scale by 2^n via the exponent field: (n + 1023) << 52.
  const __m128i ni = _mm256_cvtpd_epi32(n);
  const __m256i ni64 = _mm256_cvtepi32_epi64(ni);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(ni64, _mm256_set1_epi64x(1023)), 52);
  e = _mm256_mul_pd(e, _mm256_castsi256_pd(pow2));

  e = _mm256_blendv_pd(e, _mm256_setzero_pd(), too_lo);
  e = _mm256_blendv_pd(e, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
                       too_hi);
  return e;
}

OTFAIR_AVX2 double Avx2LseDiff(const double* x, const double* y, size_t n) {
  // Pass 1: max of (x - y).
  double hi = -std::numeric_limits<double>::infinity();
  size_t i = 0;
  if (n >= 4) {
    __m256d m = _mm256_sub_pd(_mm256_loadu_pd(x), _mm256_loadu_pd(y));
    for (i = 4; i + 4 <= n; i += 4) {
      m = _mm256_max_pd(
          m, _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    }
    hi = HMax(m);
  }
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    if (d > hi) hi = d;
  }
  if (!std::isfinite(hi)) return hi;

  // Pass 2: sum exp((x - y) - hi); every argument is <= 0 so Avx2Exp never
  // hits its overflow clamp, and -inf terms (zero-mass entries) flush to 0
  // through the underflow clamp exactly like std::exp.
  const __m256d vhi = _mm256_set1_pd(hi);
  __m256d vacc = _mm256_setzero_pd();
  i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    vacc = _mm256_add_pd(vacc, Avx2Exp(_mm256_sub_pd(d, vhi)));
  }
  double acc = HAdd(vacc);
  for (; i < n; ++i) acc += std::exp((x[i] - y[i]) - hi);
  return hi + std::log(acc);
}

// The KDE walks with each walk's four sub-chains as the lanes of one
// vector. The target has no FMA, so nothing can fuse the multiply and the
// add: each step is the scalar Walk's four terms c[k] * G[m + k] added
// into out and then c[k] *= g^4, lane for lane. A left walk stores lane k
// at out[-(m + k)], so its block is written lane-reversed.
#define OTFAIR_AVX2_NO_FMA __attribute__((target("avx2")))

OTFAIR_AVX2_NO_FMA inline __m256d WalkChains(const KdeWalk& walk) {
  const double g2 = walk.g * walk.g;
  return _mm256_setr_pd(walk.e, walk.e * walk.g, walk.e * g2, walk.e * walk.g * g2);
}

template <int kDir>
OTFAIR_AVX2_NO_FMA inline void WalkBlock(__m256d c, const double* G, size_t m, double* out) {
  const __m256d term = _mm256_mul_pd(c, _mm256_loadu_pd(G + m));
  if constexpr (kDir > 0) {
    double* p = out + m;
    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), term));
  } else {
    double* p = out - (m + 3);
    const __m256d reversed = _mm256_permute4x64_pd(term, _MM_SHUFFLE(0, 1, 2, 3));
    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), reversed));
  }
}

// The rest of one walk from step m, whose sub-chains hold c.
template <int kDir>
OTFAIR_AVX2_NO_FMA void WalkFrom(__m256d c, __m256d step, const double* G, size_t m,
                                 size_t count, double* out) {
  for (; m + 4 <= count; m += 4) {
    WalkBlock<kDir>(c, G, m, out);
    c = _mm256_mul_pd(c, step);
  }
  // The count % 4 tail: the scalar Walk's last loop from the lanes' c.
  double lanes[4];
  _mm256_storeu_pd(lanes, c);
  for (size_t k = 0; m + k < count; ++k)
    out[kDir * static_cast<ptrdiff_t>(m + k)] += lanes[k] * G[m + k];
}

// Each walk's c *= g^4 is a chain of dependent multiplies, so the two walks
// run in one loop while both last: two independent chains in flight.
OTFAIR_AVX2_NO_FMA void Avx2KdeWalks(const KdeWalk& right, const KdeWalk& left,
                                     const double* G) {
  __m256d cr = WalkChains(right);
  __m256d cl = WalkChains(left);
  const double gr2 = right.g * right.g;
  const double gl2 = left.g * left.g;
  const __m256d step_r = _mm256_set1_pd(gr2 * gr2);
  const __m256d step_l = _mm256_set1_pd(gl2 * gl2);
  const size_t both = right.count < left.count ? right.count : left.count;
  size_t m = 0;
  for (; m + 4 <= both; m += 4) {
    WalkBlock<1>(cr, G, m, right.out);
    WalkBlock<-1>(cl, G, m, left.out);
    cr = _mm256_mul_pd(cr, step_r);
    cl = _mm256_mul_pd(cl, step_l);
  }
  WalkFrom<1>(cr, step_r, G, m, right.count, right.out);
  WalkFrom<-1>(cl, step_l, G, m, left.count, left.out);
}

#undef OTFAIR_AVX2_NO_FMA

// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of zlib's polynomial. Four 128-bit accumulators fold
// 64-byte blocks, then fold into one, which takes 16-byte blocks; a Barrett
// reduction turns the remaining 64 bits into the 32-bit register. The
// constants are x^k mod P for the fold distances (reflected, shifted by
// one), and P' and mu = floor(x^64 / P) for the reduction.
#define OTFAIR_PCLMUL __attribute__((target("pclmul,sse4.1")))

OTFAIR_PCLMUL inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// acc carried forward by the fold distance whose constants k holds, plus
// the block that follows it.
OTFAIR_PCLMUL inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

OTFAIR_PCLMUL uint32_t PclmulCrc32Update(uint32_t crc, const unsigned char* bytes, size_t len) {
  if (len < 64) return ScalarCrc32Update(crc, bytes, len);
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 512 bits
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 128 bits
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);                // 64 -> 32 bits
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(Load128(bytes), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(bytes + 16);
  __m128i x3 = Load128(bytes + 32);
  __m128i x4 = Load128(bytes + 48);
  bytes += 64;
  len -= 64;
  for (; len >= 64; bytes += 64, len -= 64) {
    x1 = Fold(x1, k1k2, Load128(bytes));
    x2 = Fold(x2, k1k2, Load128(bytes + 16));
    x3 = Fold(x3, k1k2, Load128(bytes + 32));
    x4 = Fold(x4, k1k2, Load128(bytes + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; bytes += 16, len -= 16) x1 = Fold(x1, k3k4, Load128(bytes));

  // 128 -> 64 bits, then Barrett-reduce to the 32-bit register.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  crc = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
  return ScalarCrc32Update(crc, bytes, len);
}

#undef OTFAIR_PCLMUL

// The decimal reader. A token of the form [sign] digits ['.' digits] with
// at most 19 significant digits is w·10^q for an integer w < 10^19 and
// q in [-48, 0]. Eisel and Lemire round w·10^q to the nearest double from
// one 64x128-bit product with a 128-bit approximation of 5^q (Lemire, SPE
// 2021), and Mushtak and Lemire ("Fast Number Parsing Without Fallback",
// SPE 2023) prove that this product decides the rounding for every
// w < 2^64, so the result is strtod's. The bounded q also rules out
// subnormals, zero and infinity.

/// A 128-bit significand, top bit set.
struct Pow5 {
  uint64_t high;
  uint64_t low;
};

// 5^-k for k in [0, 48], as fast_float's table holds it: 5^0 = 2^127 and,
// for k > 0 with 2^(z-1) < 5^k < 2^z, floor(2^b / 5^k) + 1 with
// b = z + 127 (k <= 27), or with b = 2z + 128 and then cut to its top 128
// bits (k > 27).
constexpr std::array<Pow5, 49> BuildPow5Reciprocals() {
  std::array<Pow5, 49> table{};
  table[0] = {uint64_t{1} << 63, 0};
  unsigned __int128 power = 1;  // 5^k < 2^112
  for (int k = 1; k < 49; ++k) {
    power *= 5;
    const auto top = static_cast<uint64_t>(power >> 64);
    const int z = top != 0 ? 128 - __builtin_clzll(top)
                           : 64 - __builtin_clzll(static_cast<uint64_t>(power));
    const int b = k <= 27 ? z + 127 : 2 * z + 128;
    // 2^b in little-endian 64-bit limbs, divided by 5 k times.
    uint64_t x[6] = {};
    x[b / 64] = uint64_t{1} << (b % 64);
    for (int i = 0; i < k; ++i) {
      unsigned __int128 rest = 0;
      for (int limb = 5; limb >= 0; --limb) {
        const unsigned __int128 current = rest << 64 | x[limb];
        x[limb] = static_cast<uint64_t>(current / 5);
        rest = current % 5;
      }
    }
    for (int limb = 0; ++x[limb] == 0; ++limb) {
    }
    while ((x[2] | x[3] | x[4] | x[5]) != 0) {
      for (int limb = 0; limb < 6; ++limb) x[limb] = x[limb] >> 1 | (limb < 5 ? x[limb + 1] << 63 : 0);
    }
    table[k] = {x[1], x[0]};
  }
  return table;
}

constexpr std::array<Pow5, 49> kPow5Reciprocals = BuildPow5Reciprocals();
// fast_float's entries for 5^-1 and 5^-28, one from each branch.
static_assert(kPow5Reciprocals[1].high == 0xcccccccccccccccc &&
              kPow5Reciprocals[1].low == 0xcccccccccccccccd);
static_assert(kPow5Reciprocals[28].high == 0xfd87b5f28300ca0d &&
              kPow5Reciprocals[28].low == 0x8bca9d6e188853fc);

OTFAIR_AVX2 inline __m256i Load256(const char* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

OTFAIR_AVX2 inline uint64_t ByteMask(__m256i hits) {
  return static_cast<uint32_t>(_mm256_movemask_epi8(hits));
}

// Reads at most 65 bytes from `first`: a sign, then 32 bytes from at most
// byte 31 + 1 after it.
OTFAIR_AVX2 const char* Avx2ParseDecimal(const char* first, const char* last, double* value) {
  if (first == last) return nullptr;
  const char sign = *first;
  const uint64_t negative = sign == '-';
  const char* const p = first + (sign == '-' || sign == '+');
  // Masks of the 32 bytes at p, cleared at and past `last`.
  const auto avail = static_cast<size_t>(last - p);
  const uint64_t valid = (uint64_t{1} << (avail < 32 ? avail : 32)) - 1;
  const __m256i bytes = Load256(p);
  const __m256i offset = _mm256_sub_epi8(bytes, _mm256_set1_epi8('0'));
  const uint64_t digit =
      valid & ByteMask(_mm256_cmpeq_epi8(_mm256_min_epu8(offset, _mm256_set1_epi8(9)), offset));
  const uint64_t dot = valid & ByteMask(_mm256_cmpeq_epi8(bytes, _mm256_set1_epi8('.')));

  // `whole` digits, then optionally '.' and `fraction` digits, up to `end`.
  const int whole = __builtin_ctzll(~digit);
  const int has_dot = static_cast<int>(dot >> whole & 1);
  const int fraction = __builtin_ctzll(~(digit >> (whole + 1))) & -has_dot;
  const int end = whole + has_dot + fraction;
  int digits = whole + fraction;
  // No digits (a sign pair, inf, nan, ...), an exponent, or a number that
  // may run past the 32 bytes: the scalar entry decides.
  if (digits == 0 || end >= 32 || (static_cast<size_t>(end) < avail && (p[end] | 0x20) == 'e'))
    return ScalarParseDecimal(first, last, value);
  // Leading zeros, and the dot among them, are skipped only when the
  // digits would not fit in 19 otherwise.
  int lead = 0;
  if (digits > 19) {
    const uint64_t zero = valid & ByteMask(_mm256_cmpeq_epi8(bytes, _mm256_set1_epi8('0')));
    lead = __builtin_ctzll(~((zero | dot) & ((uint64_t{1} << end) - 1)));
    digits = end - lead - (has_dot && lead <= whole);
    if (digits > 19) return ScalarParseDecimal(first, last, value);
  }

  // The digits from `lead` with the dot squeezed out (lanes at or past it
  // read one byte further on), as values 0..9, and 0 past the last one.
  const int split = has_dot && lead <= whole ? whole - lead : 32;
  const __m256i lane = _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                                        17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
  const __m256i chars =
      _mm256_blendv_epi8(Load256(p + lead), Load256(p + lead + 1),
                         _mm256_cmpgt_epi8(lane, _mm256_set1_epi8(static_cast<char>(split - 1))));
  const __m256i values =
      _mm256_and_si256(_mm256_sub_epi8(chars, _mm256_set1_epi8('0')),
                       _mm256_cmpgt_epi8(_mm256_set1_epi8(static_cast<char>(digits)), lane));
  // w = the first 19 of them as one integer: the low 128-bit lane folds
  // digits 0-15 into pairs, quads and two halves of eight; the high lane
  // folds digits 16-18 into one number.
  const __m256i pairs = _mm256_maddubs_epi16(
      values, _mm256_setr_epi8(10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 1, 0,
                               0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0));
  const __m256i quads = _mm256_madd_epi16(
      pairs, _mm256_setr_epi16(100, 1, 100, 1, 100, 1, 100, 1, 10, 1, 0, 0, 0, 0, 0, 0));
  const __m256i halves =
      _mm256_madd_epi16(_mm256_packus_epi32(quads, quads),
                        _mm256_setr_epi16(10000, 1, 10000, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0));
  const __m128i low_lane = _mm256_castsi256_si128(halves);
  uint64_t w = (static_cast<uint64_t>(_mm_cvtsi128_si32(low_lane)) * 100000000 +
                static_cast<uint32_t>(_mm_extract_epi32(low_lane, 1))) *
                   1000 +
               static_cast<uint32_t>(_mm256_extract_epi32(halves, 4));
  if (w == 0) {
    *value = negative ? -0.0 : 0.0;
    return p + end;
  }
  const int q = -fraction - (19 - digits);

  // Eisel-Lemire: the top 55 bits of w·5^q, widened by the low word of the
  // table entry when the first product leaves them open, then rounded half
  // to even; 10^q = 5^q·2^q moves the binary exponent only.
  const int lz = __builtin_clzll(w);
  w <<= lz;
  const Pow5& power = kPow5Reciprocals[-q];
  const unsigned __int128 product = static_cast<unsigned __int128>(w) * power.high;
  auto high = static_cast<uint64_t>(product >> 64);
  auto low = static_cast<uint64_t>(product);
  if ((high & 0x1FF) == 0x1FF) {
    const auto carry = static_cast<uint64_t>((static_cast<unsigned __int128>(w) * power.low) >> 64);
    low += carry;
    high += low < carry;
  }
  const int upper = static_cast<int>(high >> 63);
  const int shift = upper + 9;
  uint64_t mantissa = high >> shift;
  int exponent = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
  // An exact tie (the shift dropped only zeros, which needs q >= -4)
  // must not round up from an even mantissa.
  if (low <= 1 && q >= -4 && (mantissa & 3) == 1 && mantissa << shift == high)
    mantissa &= ~uint64_t{1};
  mantissa = (mantissa + (mantissa & 1)) >> 1;
  if (mantissa >> 53 != 0) {
    mantissa = uint64_t{1} << 52;
    ++exponent;
  }
  const uint64_t bits = negative << 63 | static_cast<uint64_t>(exponent) << 52 |
                        (mantissa & ((uint64_t{1} << 52) - 1));
  std::memcpy(value, &bits, sizeof(bits));
  return p + end;
}

#undef OTFAIR_AVX2

// The transport with four records per vector: lane i of every register is
// record t + i. Each lane runs the scalar entry's draws on its own stream,
// so every generator step is computed for all four lanes and committed
// only in the lanes whose draw consumes. No FMA: the blend is the scalar
// entry's two rounded products and one sum.
#define OTFAIR_AVX2_NO_FMA __attribute__((target("avx2")))

/// Four xoshiro256++ states, word w of lane i in lane i of s[w].
struct Xoshiro4 {
  __m256i s[4];
};

template <int kBits>
OTFAIR_AVX2_NO_FMA inline __m256i Rotl64(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, kBits), _mm256_srli_epi64(x, 64 - kBits));
}

// Rng::Next64 in every lane: advances x and returns the outputs.
OTFAIR_AVX2_NO_FMA inline __m256i Next64(Xoshiro4* x) {
  const __m256i result =
      _mm256_add_epi64(Rotl64<23>(_mm256_add_epi64(x->s[0], x->s[3])), x->s[0]);
  const __m256i t = _mm256_slli_epi64(x->s[1], 17);
  const __m256i s2 = _mm256_xor_si256(x->s[2], x->s[0]);
  const __m256i s3 = _mm256_xor_si256(x->s[3], x->s[1]);
  x->s[1] = _mm256_xor_si256(x->s[1], s2);
  x->s[0] = _mm256_xor_si256(x->s[0], s3);
  x->s[2] = _mm256_xor_si256(s2, t);
  x->s[3] = Rotl64<45>(s3);
  return result;
}

// Keeps x's step only in the lanes of `draws` (all ones or all zeros per
// lane); the other lanes go back to `before`.
OTFAIR_AVX2_NO_FMA inline void CommitWhere(Xoshiro4* x, const Xoshiro4& before, __m256i draws) {
  for (int w = 0; w < 4; ++w) x->s[w] = _mm256_blendv_epi8(before.s[w], x->s[w], draws);
}

// Rng::Uniform of the outputs r: (r >> 11) * 2^-53, exactly. The 53 bits
// convert as a 27-bit and a 26-bit half, each exact through the 2^52
// magic constant; hi * 2^26 + lo < 2^53 is exact too.
OTFAIR_AVX2_NO_FMA inline __m256d Uniform53(__m256i r) {
  const __m256i magic_bits = _mm256_set1_epi64x(0x4330000000000000);  // 2^52
  const __m256d magic = _mm256_castsi256_pd(magic_bits);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(r, 37), magic_bits)), magic);
  const __m256i low26 = _mm256_and_si256(_mm256_srli_epi64(r, 11), _mm256_set1_epi64x(0x3FFFFFF));
  const __m256d lo = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(low26, magic_bits)), magic);
  return _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p26)), lo),
                       _mm256_set1_pd(0x1.0p-53));
}

// Rng::Bernoulli(p) in every lane on the outputs r: true where p >= 1, or
// where the lane draws (p is neither <= 0 nor >= 1, as for NaN) and
// Uniform() < p. *draws gets the lanes that consume.
OTFAIR_AVX2_NO_FMA inline __m256i Bernoulli(__m256d p, __m256i r, __m256i* draws) {
  const __m256d at_most_zero = _mm256_cmp_pd(p, _mm256_setzero_pd(), _CMP_LE_OQ);
  const __m256d at_least_one = _mm256_cmp_pd(p, _mm256_set1_pd(1.0), _CMP_GE_OQ);
  const __m256d draw = _mm256_xor_pd(_mm256_or_pd(at_most_zero, at_least_one),
                                     _mm256_castsi256_pd(_mm256_set1_epi64x(-1)));
  *draws = _mm256_castpd_si256(draw);
  const __m256d below = _mm256_cmp_pd(Uniform53(r), p, _CMP_LT_OQ);
  return _mm256_castpd_si256(_mm256_or_pd(at_least_one, _mm256_and_pd(draw, below)));
}

OTFAIR_AVX2_NO_FMA inline __m256i Gather64(const void* base, __m256i index) {
  return _mm256_i64gather_epi64(static_cast<const long long*>(base), index, 8);
}

// Records [t, t + count) of `records`.
TransportRecords Slice(const TransportRecords& records, size_t t, size_t count) {
  TransportRecords part = records;
  part.lower += t;
  part.tau += t;
  part.x += t;
  for (uint64_t*& words : part.state) words += t;
  part.out += t;
  part.count = count;
  return part;
}

OTFAIR_AVX2_NO_FMA size_t Avx2Transport(const TransportChannel& channel,
                                        const TransportRecords& records) {
  // Fewer than four records (a short span) skip the vector set-up.
  if (records.count < 4) return ScalarTransport(channel, records);
  const __m256i ones = _mm256_set1_epi64x(1);
  const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFF);
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(uint64_t{1} << 63));
  const __m256i last_row = _mm256_set1_epi64x(static_cast<long long>(channel.rows - 1));
  const __m256d keep = _mm256_set1_pd(1.0 - channel.strength);
  const __m256d strength = _mm256_set1_pd(channel.strength);
  size_t fallbacks = 0;
  size_t t = 0;
  for (; t + 4 <= records.count; t += 4) {
    Xoshiro4 x;
    for (int w = 0; w < 4; ++w)
      x.s[w] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(records.state[w] + t));
    // The neighbour bump: q + 1 where Bernoulli(tau) holds and q < n_Q - 1.
    __m256i q = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(records.lower + t)));
    Xoshiro4 before = x;
    __m256i draws;
    const __m256i bump = Bernoulli(_mm256_loadu_pd(records.tau + t), Next64(&x), &draws);
    CommitWhere(&x, before, draws);
    q = _mm256_sub_epi64(q, _mm256_and_si256(bump, _mm256_cmpgt_epi64(last_row, q)));
    // Empty rows go to their fallback row before any slot is read.
    __m256i begin = Gather64(channel.offsets, q);
    __m256i end = Gather64(channel.offsets + 1, q);
    const __m256i empty = _mm256_cmpeq_epi64(begin, end);
    const int empty_lanes = _mm256_movemask_pd(_mm256_castsi256_pd(empty));
    if (empty_lanes != 0) {
      const __m256i fallback = _mm256_cvtepu32_epi64(_mm256_i64gather_epi32(
          reinterpret_cast<const int*>(channel.fallback), q, 4));
      q = _mm256_blendv_epi8(q, fallback, empty);
      begin = Gather64(channel.offsets, q);
      end = Gather64(channel.offsets + 1, q);
    }
    // The bucket: the high word of r * n (Lemire), n = end - begin < 2^32,
    // as two 32 x 32-bit products. A low word below n may reject.
    const __m256i n = _mm256_sub_epi64(end, begin);
    const __m256i r = Next64(&x);
    const __m256i r_high_n = _mm256_mul_epu32(_mm256_srli_epi64(r, 32), n);
    const __m256i r_low_n = _mm256_mul_epu32(r, n);
    const __m256i mid = _mm256_add_epi64(_mm256_and_si256(r_high_n, low32),
                                         _mm256_srli_epi64(r_low_n, 32));
    const __m256i low =
        _mm256_or_si256(_mm256_slli_epi64(mid, 32), _mm256_and_si256(r_low_n, low32));
    const __m256i may_reject =
        _mm256_cmpgt_epi64(_mm256_xor_si256(n, sign), _mm256_xor_si256(low, sign));
    if (!_mm256_testz_si256(may_reject, may_reject)) {
      fallbacks += ScalarTransport(channel, Slice(records, t, 4));
      continue;
    }
    const __m256i slot = _mm256_add_epi64(
        begin, _mm256_add_epi64(_mm256_srli_epi64(r_high_n, 32), _mm256_srli_epi64(mid, 32)));
    // The slot's probability and its two columns: 16 bytes are two words
    // (prob, then col and alias_col).
    const __m256i word = _mm256_slli_epi64(slot, 1);
    const __m256d prob =
        _mm256_i64gather_pd(reinterpret_cast<const double*>(channel.slots), word, 8);
    const __m256i cols = Gather64(channel.slots, _mm256_add_epi64(word, ones));
    before = x;
    const __m256i accept = Bernoulli(prob, Next64(&x), &draws);
    CommitWhere(&x, before, draws);
    const __m256i col =
        _mm256_blendv_epi8(_mm256_srli_epi64(cols, 32), _mm256_and_si256(cols, low32), accept);
    const __m256d transported = _mm256_i64gather_pd(channel.points, col, 8);
    const __m256d repaired = _mm256_add_pd(_mm256_mul_pd(keep, _mm256_loadu_pd(records.x + t)),
                                           _mm256_mul_pd(strength, transported));
    _mm256_storeu_pd(records.out + t, repaired);
    for (int w = 0; w < 4; ++w)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(records.state[w] + t), x.s[w]);
    fallbacks += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(empty_lanes)));
  }
  return fallbacks + ScalarTransport(channel, Slice(records, t, records.count - t));
}

#undef OTFAIR_AVX2_NO_FMA

constexpr Ops kAvx2Ops = {
    "avx2",            Avx2LseDiff,      Avx2KdeWalks,
    PclmulCrc32Update, Avx2ParseDecimal, Avx2Transport,
};

#endif  // OTFAIR_SIMD_X86

const Ops* DetectBest() {
#if defined(OTFAIR_SIMD_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("pclmul")) {
    return &kAvx2Ops;
  }
#endif
  return &kScalarOps;
}

bool EnvForcesScalar() {
  const char* v = std::getenv("OTFAIR_NO_SIMD");
  if (v == nullptr) return false;
  // Any value other than an explicit "0"/"" disables SIMD.
  return v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{EnvForcesScalar()};
  return flag;
}

}  // namespace

const Ops& ScalarOps() { return kScalarOps; }

const Ops& BestOps() {
  static const Ops* best = DetectBest();
  return *best;
}

const Ops& Active() {
  return ForceScalarFlag().load(std::memory_order_relaxed) ? kScalarOps
                                                           : BestOps();
}

void SetForceScalar(bool force) {
  ForceScalarFlag().store(force, std::memory_order_relaxed);
}

bool ForcedScalar() {
  return ForceScalarFlag().load(std::memory_order_relaxed);
}

const char* ActiveIsa() { return Active().isa; }

}  // namespace otfair::common::simd
