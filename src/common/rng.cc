#include "common/rng.h"

#include <cassert>
#include <cmath>

#include "common/hash.h"

namespace superfe {
namespace {

inline uint64_t Rotl64(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed expansion via splitmix64 so that nearby seeds give unrelated streams.
  uint64_t x = seed;
  for (auto& s : s_) {
    s = Mix64(x++);
  }
  // Avoid the all-zero state (cannot happen with Mix64, but keep the invariant explicit).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl64(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl64(s_[3], 45);
  return result;
}

uint64_t Rng::UniformU64(uint64_t bound) {
  assert(bound > 0);
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<int64_t>(NextU64());
  }
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) { return lo + (hi - lo) * UniformDouble(); }

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u = 0.0;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(mu + sigma * Normal()); }

uint64_t Rng::Zipf(uint64_t n, double s) {
  assert(n >= 1);
  // Rejection-inversion sampling (Hormann & Derflinger) specialized for s != 1.
  // For s == 1 we nudge the exponent; the distributions are indistinguishable
  // for our purposes.
  if (s == 1.0) {
    s = 1.0000001;
  }
  const double one_minus_s = 1.0 - s;
  auto h_integral = [&](double x) { return std::pow(x, one_minus_s) / one_minus_s; };
  auto h_integral_inv = [&](double x) { return std::pow(x * one_minus_s, 1.0 / one_minus_s); };
  const double h_x1 = h_integral(1.5) - 1.0;
  const double h_n = h_integral(static_cast<double>(n) + 0.5);
  for (;;) {
    const double u = h_n + UniformDouble() * (h_x1 - h_n);
    const double x = h_integral_inv(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n) {
      k = n;
    }
    const double kd = static_cast<double>(k);
    if (u >= h_integral(kd + 0.5) - std::pow(kd, -s)) {
      return k;
    }
  }
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  double target = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

}  // namespace superfe
