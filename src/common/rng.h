// Deterministic random number generation for trace synthesis and simulators.
//
// All SuperFE experiments are seeded, so results reproduce across runs. The
// engine is xoshiro256**, which is fast and has no observable bias at the
// sample counts we use (hundreds of millions).
#ifndef SUPERFE_COMMON_RNG_H_
#define SUPERFE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace superfe {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedull);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform 32-bit value.
  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  // Uniform in [0, bound) using Lemire's method; bound must be > 0.
  uint64_t UniformU64(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // True with probability p.
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (cached second value).
  double Normal();
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  // Exponential with the given rate (lambda > 0).
  double Exponential(double rate);

  // Log-normal with given mu/sigma of the underlying normal.
  double LogNormal(double mu, double sigma);

  // Zipf-distributed rank in [1, n] with exponent s, via rejection-inversion.
  uint64_t Zipf(uint64_t n, double s);

  // Picks an index in [0, weights.size()) proportional to weights.
  size_t WeightedIndex(const std::vector<double>& weights);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace superfe

#endif  // SUPERFE_COMMON_RNG_H_
