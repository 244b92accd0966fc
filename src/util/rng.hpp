// Deterministic random number generation.
//
// The simulator must be exactly reproducible: a given seed produces the same
// event sequence on every platform.  We therefore avoid std::*_distribution
// (whose algorithms are implementation-defined) and implement the small set
// of distributions we need on top of SplitMix64, which is fast, well mixed,
// and trivially portable.
//
// Rng::stream() derives statistically independent substreams so that, e.g.,
// packet-loss decisions and load fluctuations never share a sequence --
// adding a consumer of randomness cannot perturb unrelated components.
#pragma once

#include <cstdint>
#include <vector>

namespace netpart {

/// SplitMix64's output finalizer: a bijection that avalanches every input
/// bit across the word.  Rng applies it to its Weyl-sequence state; trace
/// ids (obs/trace_context) and fleet ring positions (fleet/hash_ring) use
/// it to spread structured inputs.
constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64 generator with derived substreams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p);

  /// Zero-mean Gaussian via Box-Muller (deterministic, portable).
  double next_gaussian(double stddev);

  /// Exponential with the given mean (> 0).
  double next_exponential(double mean);

  /// Derive an independent substream; `salt` identifies the consumer.
  Rng stream(std::uint64_t salt) const;

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..k-1, rank 0 the most likely, drawn by inverse CDF:
/// each draw consumes exactly one Rng::next_double(), so a seeded Rng
/// yields one reproducible rank sequence.  s = 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(int k, double s);

  int draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace netpart
