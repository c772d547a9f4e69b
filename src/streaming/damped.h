// Damped-window incremental statistics (Kitsune's incStat), used by the
// intrusion-detection applications (Kitsune, HELAD) whose features are
// computed over exponentially decaying windows.
//
// State per stream: weight w, linear sum LS, squared sum SS; all decayed by
// 2^(-lambda * dt) before each insert. 2D statistics additionally keep a
// decayed sum of residual products for covariance/correlation.
//
// Three arithmetic modes support the Fig 10 accuracy comparison:
//  - kExactDouble:   IEEE double (the standard feature definition).
//  - kNicFixedPoint: what FE-NIC runs — 16.16 fixed point with the decay
//                    exponent quantized to 1/16 steps (no FPU on the NFP).
//  - kFloat32:       the original Kitsune implementation's single-precision
//                    arithmetic (its |SS/w - mean^2| variance cancels badly).
//
// Table 5 does not list damped variants explicitly; SuperFE supports them as
// a `decay` parameter on reduce (documented in DESIGN.md §5).
//
// These classes run each state on its own clock: the definitional oracle.
// The executor keeps a group's damped states as lanes of one block
// (streaming/damped_lanes.h), which share each λ's decay and weights and
// must round exactly as these do.
#ifndef SUPERFE_STREAMING_DAMPED_H_
#define SUPERFE_STREAMING_DAMPED_H_

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace superfe {

enum class DampedMode : uint8_t {
  kExactDouble = 0,
  kNicFixedPoint = 1,
  kFloat32 = 2,
};

namespace damped_internal {

constexpr double kFixedScale = 65536.0;  // 16.16 fixed point.

// Rounds 0 <= v < 2^52 to an integer, ties to even, as nearbyint does in the
// default rounding mode: above 2^52 a double has no fraction bits, so the
// sum drops them with round-to-nearest-even.
inline double RoundToInteger(double v) {
  constexpr double kTwo52 = 4503599627370496.0;
  return (v + kTwo52) - kTwo52;
}

// Rounds a finite normal v to 24 significant bits, ties to even, on its bit
// pattern: the 29 low mantissa bits go, a carry moves into the exponent.
inline double RoundToSignificand24(double v) {
  constexpr int kDropped = 52 - 23;
  uint64_t bits = std::bit_cast<uint64_t>(v);
  const uint64_t odd = (bits >> kDropped) & 1;
  bits = (bits + ((uint64_t{1} << (kDropped - 1)) - 1) + odd) & ~((uint64_t{1} << kDropped) - 1);
  return std::bit_cast<double>(bits);
}

// The kNicFixedPoint rounding of ±inf and NaN (out of line): the
// ilogb/ldexp/nearbyint form, which turns ±inf into NaN.
double QuantizeFixedNonFinite(double v);

// kNicFixedPoint rounding: 32-bit fixed point with per-group block scaling.
// Values below 2^24 live on the 16.16 grid; larger magnitudes shift the
// block exponent, keeping a 24-bit mantissa. Ties go to even. Equal, bit for
// bit, to nearbyint(v * 2^16) / 2^16 below 2^24 and to
// nearbyint(v / 2^e) * 2^e with e = ilogb(|v|) - 23 above, without a libm
// call. (A float round trip would give the same 24 bits up to FLT_MAX, but
// GCC 12's C++ front end only has fast excess precision, under which the
// SLP vectorizer drops the rounding of `a = (float)x; b = (float)y;`.)
inline double QuantizeFixed(double v) {
  if (v == 0.0) {
    return 0.0;
  }
  const double abs_v = std::fabs(v);
  if (abs_v < 16777216.0) {  // 2^24.
    return std::copysign(RoundToInteger(abs_v * kFixedScale), v) / kFixedScale;
  }
  if (abs_v <= DBL_MAX) {
    return RoundToSignificand24(v);
  }
  return QuantizeFixedNonFinite(v);
}

// The kFloat32 rounding: a double -> float -> double round trip, out of
// line: a call the vectorizer cannot merge with another (see QuantizeFixed).
[[gnu::noinline]] double RoundToFloat(double v);

// The kNicFixedPoint decay factor: the exact factor 2^(-λ dt) (at most 1
// for the validator's λ >= 0) on the 16.16 grid.
inline double FixedFactor(double exact) {
  const double scaled = exact * kFixedScale;
  return (scaled < 4503599627370496.0 ? RoundToInteger(scaled) : std::nearbyint(scaled)) /
         kFixedScale;
}

// The decay factor 2^(-lambda dt) under the mode's arithmetic; 1 for
// dt <= 0.
double DecayFactor(DampedMode mode, double lambda, double dt);

// Applies the mode's rounding to a freshly computed state value.
inline double Quantize(DampedMode mode, double v) {
  if (mode == DampedMode::kNicFixedPoint) {
    return QuantizeFixed(v);
  }
  if (mode == DampedMode::kFloat32) {
    return RoundToFloat(v);
  }
  return v;
}

}  // namespace damped_internal

// One-dimensional damped statistics.
class DampedStats {
 public:
  // lambda in 1/seconds of the 2^(-lambda*dt) decay (Kitsune uses
  // lambda in {5, 3, 1, 0.1, 0.01}).
  explicit DampedStats(double lambda, DampedMode mode = DampedMode::kExactDouble)
      : lambda_(lambda), mode_(mode) {}

  // Inserts value x observed at time t (seconds).
  void Add(double x, double t_seconds);

  // Decays state to time t without inserting.
  void DecayTo(double t_seconds);

  double weight() const { return w_; }
  double linear_sum() const;
  double mean() const;
  double variance() const;

 private:
  friend class DampedStats2D;

  // Inserts a (possibly decayed) sample with the given weight.
  void AddWeighted(double x, double weight);
  // The weight-independent halves of a decay and of an insert: the second
  // moment (fixed point) or LS and SS; the insert also moves the mean,
  // which needs the new weight.
  void DecayMoments(double factor);
  void InsertMoments(double x, double weight, double new_w);

  double lambda_;
  DampedMode mode_;
  double w_ = 0.0;
  // kExactDouble / kFloat32 state: decayed linear and squared sums (the
  // original Kitsune AfterImage representation).
  double ls_ = 0.0;
  double ss_ = 0.0;
  // kNicFixedPoint state: Welford-form mean and decayed central moment
  // (numerically stable; what FE-NIC runs, §6.1).
  double mean_ = 0.0;
  double m2_ = 0.0;
  double last_t_ = 0.0;
  bool initialized_ = false;
};

// Two-dimensional damped statistics over a pair of streams (e.g. the two
// directions of a channel). Provides Kitsune's 2D features: magnitude,
// radius, approximate covariance and correlation coefficient.
class DampedStats2D {
 public:
  explicit DampedStats2D(double lambda, DampedMode mode = DampedMode::kExactDouble)
      : a_(lambda, mode), b_(lambda, mode), lambda_(lambda) {}

  // Inserts a value into stream A or B at time t; the residual product uses
  // the other stream's current mean (Kitsune's incStat2D update).
  void AddA(double x, double t_seconds);
  void AddB(double x, double t_seconds);

  const DampedStats& a() const { return a_; }
  const DampedStats& b() const { return b_; }

  // sqrt(mean_a^2 + mean_b^2)
  double Magnitude() const;
  // sqrt(var_a^2 + var_b^2)
  double Radius() const;
  // Approximate covariance: SR / (w_a + w_b).
  double Covariance() const;
  // Correlation coefficient: cov / (std_a * std_b); 0 when degenerate.
  double CorrelationCoefficient() const;

 private:
  void DecayResidual(double t_seconds);

  DampedStats a_;
  DampedStats b_;
  double lambda_;
  double sr_ = 0.0;  // Decayed sum of residual products.
  double last_t_ = 0.0;
  bool initialized_ = false;
};

}  // namespace superfe

#endif  // SUPERFE_STREAMING_DAMPED_H_
