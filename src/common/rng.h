#ifndef OTFAIR_COMMON_RNG_H_
#define OTFAIR_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace otfair::common {

/// Deterministic, seedable pseudo-random number generator.
///
/// Implementation: xoshiro256++ (Blackman & Vigna, 2019) seeded through
/// SplitMix64, which gives well-distributed state from any 64-bit seed.
/// All experiment randomness in otfair flows through this class so that
/// every table/figure reproduction is bit-reproducible given a seed.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// handed to <random> distributions where convenient; the methods below are
/// the preferred interface because their output is stable across standard
/// library implementations.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator from a 64-bit seed. Equal seeds give equal
  /// streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Deterministic decorrelated sub-stream `stream` of `seed`: for a fixed
  /// seed, distinct stream indices give independent-looking generators.
  /// This is how batch repair assigns each dataset row its own stream, so
  /// rows can be repaired in any order (or in parallel) with bit-identical
  /// results.
  static Rng ForStream(uint64_t seed, uint64_t stream);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64 random bits.
  uint64_t operator()() { return Next64(); }
  uint64_t Next64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal deviate (Box–Muller with caching: exactly two uniforms
  /// consumed per pair of normals).
  double Normal();

  /// Normal deviate with the given mean and standard deviation (sd >= 0).
  double Normal(double mean, double sd);

  /// Bernoulli trial: true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Draws an index from the (unnormalized, non-negative) weight vector by
  /// inverse-CDF. Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Exponential deviate with the given rate (> 0).
  double Exponential(double rate);

  /// In-place Fisher–Yates shuffle of indices [0, n); returns the
  /// permutation.
  std::vector<size_t> Permutation(size_t n);

  /// Forks an independent generator: the child stream is decorrelated from
  /// this one (seeded from this stream through SplitMix64). Useful for
  /// giving each Monte-Carlo trial its own reproducible stream.
  Rng Fork();

  /// The four xoshiro256++ state words, for code that advances many
  /// streams side by side (simd::Ops::transport keeps one array per word
  /// and advances them in place). FromState(State()) resumes the stream
  /// without the seeding a constructor does. Writing the words leaves a
  /// cached normal deviate alone; they must not all become zero.
  using Words = std::array<uint64_t, 4>;
  const Words& State() const { return state_; }
  Words& State() { return state_; }
  static Rng FromState(const Words& words) { return Rng(words); }

 private:
  explicit Rng(const Words& words) : state_(words) {}

  Words state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace otfair::common

#endif  // OTFAIR_COMMON_RNG_H_
