#ifndef OTFAIR_COMMON_SIMD_H_
#define OTFAIR_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace otfair::common::simd {

/// One outward KDE walk from a bracket grid point (see Ops::kde_walks).
struct KdeWalk {
  double e = 0.0;         // the term at the bracket point, exp(-z^2 / 2)
  double g = 0.0;         // the per-step ratio exp(-z d)
  size_t count = 0;       // grid points walked
  double* out = nullptr;  // the bracket point's pmf entry
};

/// One Walker/Vose alias bucket (stats::AliasArena::Slot): a draw that
/// lands on it returns `col` with probability `prob`, else `alias_col`.
struct AliasSlot {
  double prob;         // acceptance probability of this bucket
  uint32_t col;        // payload returned when the bucket accepts
  uint32_t alias_col;  // payload returned when it rejects (Vose alias)
};
static_assert(sizeof(AliasSlot) == 16, "AliasSlot must pack to 16 bytes");

/// Draws a payload column from the alias row slots[begin, end), end > begin:
/// a Lemire bounded integer picks the bucket, then a Bernoulli on its
/// probability picks the column, which consumes nothing when that
/// probability is 0 or 1. The one scalar definition of the alias draw:
/// stats::AliasArena::SampleCol and TransportRecord call it.
inline uint32_t SampleAliasCol(const AliasSlot* slots, size_t begin, size_t end, Rng& rng) {
  const AliasSlot& slot = slots[begin + rng.UniformInt(end - begin)];
  return rng.Bernoulli(slot.prob) ? slot.col : slot.alias_col;
}

/// One (u, s, k) repair channel as Ops::transport reads it (the tables
/// core::OffSampleRepairer builds per channel).
struct TransportChannel {
  const double* points = nullptr;      // the n_Q grid points
  size_t rows = 0;                     // n_Q
  const size_t* offsets = nullptr;     // row q holds slots [offsets[q], offsets[q + 1])
  const uint32_t* fallback = nullptr;  // a row with mass, read for empty rows only
  const AliasSlot* slots = nullptr;    // fewer than 2^32 per row
  double strength = 1.0;               // partial-repair lambda in [0, 1]
};

/// Repairs one located record of `channel` with `rng` (Algorithm 2 lines
/// 6-9, then the partial-repair blend): a Bernoulli(tau) step from row
/// `lower` to its upper neighbour, the fallback row for an empty row
/// (counted into `fallbacks`), a SampleAliasCol draw, and the blend with
/// `x`. The one scalar definition of the repair draw: the scalar transport
/// entry loops over it, the AVX2 entry reproduces it four records at a
/// time, and core::OffSampleRepairer::RepairValue calls it directly.
inline double TransportRecord(const TransportChannel& channel, size_t lower, double tau,
                              double x, Rng& rng, size_t& fallbacks) {
  size_t q = lower;
  if (rng.Bernoulli(tau) && q + 1 < channel.rows) ++q;
  if (channel.offsets[q + 1] == channel.offsets[q]) {
    ++fallbacks;
    q = channel.fallback[q];
  }
  const double transported =
      channel.points[SampleAliasCol(channel.slots, channel.offsets[q], channel.offsets[q + 1], rng)];
  return (1.0 - channel.strength) * x + channel.strength * transported;
}

/// `count` located records of one channel. Record t draws from its own
/// xoshiro256++ stream, whose word w is state[w][t] (Rng::State order).
struct TransportRecords {
  const uint32_t* lower = nullptr;  // located lower grid row, < n_Q
  const double* tau = nullptr;      // neighbour weight in [0, 1]
  const double* x = nullptr;        // input value, finite
  uint64_t* state[4] = {};          // advanced in place
  double* out = nullptr;            // repaired value (may alias x)
  size_t count = 0;
};

/// Thin SIMD wrapper for the design, repair and Sinkhorn hot paths, the
/// plan/checkpoint CRC and the decimal reader behind CSV files and the
/// serving protocol.
///
/// Two kernel tables are compiled in, AVX2+FMA+PCLMULQDQ on x86-64 and a
/// portable scalar one everywhere (other ISAs take the scalar table); which
/// table actually runs is decided once, at first use, by a runtime check:
/// the CPU must support the compiled ISA (`__builtin_cpu_supports`) and
/// the `OTFAIR_NO_SIMD` environment variable (or a `SetForceScalar`
/// call — the CLI `--no-simd` flag lands there) must not force the
/// scalar path. The AVX2 kernels carry per-function target attributes,
/// so no global `-march` flag is needed — the default build dispatches
/// to AVX2 on supporting hardware and to scalar elsewhere.
///
/// Numerical contract: every kernel is bit-identical to its scalar
/// reference, so plan bytes, their CRC, the values read from a CSV file and
/// repair output do not depend on the table; the determinism suite asserts
/// exactly that. The scalar log-sum-exp (`lse_diff`) is the vector one a
/// lane at a time: the same Cephes exp, four lane sums folded as the
/// vector fold adds them, std::exp on the tail. The KDE walks run the same
/// two rounded multiplies per term, the CRC and the decimal reader are
/// exact integer arithmetic, and the repair draw (`transport`) advances
/// each record's stream exactly as common::Rng does: the same draws in the
/// same order, and none where a probability is 0 or 1, compared against
/// the same exactly converted uniforms and blended by the same two
/// rounded products.
struct Ops {
  /// Short ISA tag: "avx2" or "scalar".
  const char* isa;
  /// log sum_i exp(x[i] - y[i]), the fused two-pass (max, then exp-sum)
  /// log-sum-exp over a difference; -inf when n == 0 or every term is
  /// -inf. Both tables run four lanes: the max pass keeps four lane maxima,
  /// the sum pass adds a Cephes-style exp (< 2 ulp) into four lane sums,
  /// folded as (l0 + l2) + (l1 + l3), and the n % 4 tail takes std::exp.
  /// AVX2 table: one vector, FMA in the exp. Scalar: the same operations
  /// a lane at a time (std::fma where the vector code fuses).
  double (*lse_diff)(const double* x, const double* y, size_t n);
  /// One sample's two KDE grid walks (stats::GaussianKde::PmfOnGrid):
  /// right.out[m] += c_m * G[m] for m in [0, right.count) and
  /// left.out[-m] += c_m * G[m] for m in [0, left.count), where each walk's
  /// c_m = e * g^m runs in four interleaved sub-chains of stride g^4
  /// (c_0..c_3 = e, e*g, e*g^2, e*g*g^2, then each times g^4 per step).
  /// The walks write disjoint entries, and a walk with count 0 touches
  /// nothing. Bit-identical to scalar: every term is the same two rounded
  /// multiplies (no FMA), and every entry receives its one term.
  void (*kde_walks)(const KdeWalk& right, const KdeWalk& left, const double* G);
  /// CRC-32 register update over `len` bytes (zlib's reflected 0xEDB88320;
  /// see common/crc32.h). Scalar: slicing-by-8. AVX2 table: a PCLMULQDQ
  /// carry-less-multiply fold (Gopal et al., Intel 2009) over 64-byte
  /// blocks, finishing tails under 16 bytes, and inputs under 64, with
  /// slicing-by-8. Exact integer arithmetic: bit-identical to scalar.
  uint32_t (*crc32_update)(uint32_t crc, const unsigned char* data, size_t len);
  /// Reads the finite decimal that starts at `first` (the grammar of
  /// common::ParseFiniteDecimal) into *value and returns one past its last
  /// byte, or nullptr when none starts there. Like std::from_chars, it
  /// takes the longest prefix of [first, last) that reads as a number and
  /// leaves what follows to the caller. The kDecimalSlack bytes from
  /// `first` must be readable, even past `last` (common/string_util.h).
  /// Scalar: std::from_chars. AVX2 table: an integer or plain decimal of
  /// at most 19 significant digits is read from vector compares, a
  /// pmaddubsw/pmaddwd fold and one 128-bit Eisel-Lemire product; other
  /// tokens take the scalar entry. Bit-identical to scalar: both are
  /// correctly rounded, and they end at the same byte.
  const char* (*parse_decimal)(const char* first, const char* last, double* value);
  /// The transport of Algorithm 2 (lines 6-9) and the partial-repair
  /// blend, for every record: bump the lower row by one when
  /// Bernoulli(tau) holds and a row lies above it; send an empty row to
  /// its fallback row; draw a column by SampleAliasCol; write
  /// (1 - strength) * x + strength * points[column]. Returns how many
  /// records took a fallback row. Scalar: that sequence through
  /// common::Rng, one record at a time. AVX2 table: four records per
  /// vector; a lane's generator step is committed only where the draw
  /// consumes (so a degenerate probability consumes nothing), the 53-bit
  /// uniforms convert exactly, the blend is a separate multiply and add,
  /// and a quad whose bounded-integer draw might reject (probability
  /// about n/2^64) is handed to the scalar entry. Bit-identical to
  /// scalar: same outputs, same final states, same count.
  size_t (*transport)(const TransportChannel& channel, const TransportRecords& records);
};

/// Bytes from a token's start that Ops::parse_decimal may read (the AVX2
/// entry reads at most 65).
inline constexpr size_t kDecimalSlack = 96;

/// The portable scalar reference table (always available).
const Ops& ScalarOps();

/// The widest kernel table compiled in AND supported by this CPU,
/// ignoring any force-scalar override. Equals ScalarOps() on hardware
/// without a compiled vector ISA.
const Ops& BestOps();

/// The dispatched table: BestOps(), unless `OTFAIR_NO_SIMD` was set in
/// the environment at first use or `SetForceScalar(true)` was called.
const Ops& Active();

/// Forces (or un-forces) the scalar fallback at runtime; the CLI/bench
/// `--no-simd` escape hatch. Takes effect on subsequent Active() calls.
void SetForceScalar(bool force);

/// True when the scalar path is currently forced (env or SetForceScalar).
bool ForcedScalar();

/// ISA tag of the table Active() dispatches to right now.
const char* ActiveIsa();

/// Ops::lse_diff through the dispatched table.
inline double LseDiff(const double* x, const double* y, size_t n) {
  return Active().lse_diff(x, y, n);
}

}  // namespace otfair::common::simd

#endif  // OTFAIR_COMMON_SIMD_H_
