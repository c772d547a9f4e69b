#include "streaming/damped.h"

#include <cmath>

namespace superfe {
namespace damped_internal {

double QuantizeFixedNonFinite(double v) {
  if (std::isnan(v)) {
    return v;  // ilogb has no exponent to give; the rounding keeps the NaN.
  }
  const int exponent = std::ilogb(std::fabs(v)) - 23;
  const double scale = std::ldexp(1.0, exponent);
  return std::nearbyint(v / scale) * scale;
}

double RoundToFloat(double v) { return static_cast<float>(v); }

double DecayFactor(DampedMode mode, double lambda, double dt) {
  if (dt <= 0.0) {
    return 1.0;
  }
  switch (mode) {
    case DampedMode::kExactDouble:
      return std::exp2(-lambda * dt);
    case DampedMode::kNicFixedPoint:
      return FixedFactor(std::exp2(-lambda * dt));
    case DampedMode::kFloat32:
      return static_cast<float>(std::exp2(-static_cast<float>(lambda * dt)));
  }
  return 1.0;
}

}  // namespace damped_internal

using damped_internal::DecayFactor;
using damped_internal::Quantize;

void DampedStats::DecayMoments(double factor) {
  if (mode_ == DampedMode::kNicFixedPoint) {
    // Welford-form state (§6.1): weight and central moment decay; the mean
    // is a location estimate and is decay-invariant.
    m2_ = Quantize(mode_, m2_ * factor);
  } else {
    ls_ = Quantize(mode_, ls_ * factor);
    ss_ = Quantize(mode_, ss_ * factor);
  }
}

void DampedStats::InsertMoments(double x, double weight, double new_w) {
  if (mode_ == DampedMode::kNicFixedPoint) {
    // Weighted damped Welford update: numerically stable (no SS/w - mean^2
    // cancellation), which is exactly why FE-NIC uses it (§6.1).
    const double delta = x - mean_;
    const double new_mean = Quantize(mode_, mean_ + weight * delta / new_w);
    m2_ = Quantize(mode_, m2_ + weight * delta * (x - new_mean));
    mean_ = new_mean;
    return;
  }
  // LS/SS form: the textbook decayed sums — and, in float32, the original
  // Kitsune implementation (AfterImage) whose variance cancels badly.
  ls_ = Quantize(mode_, ls_ + weight * x);
  ss_ = Quantize(mode_, ss_ + weight * x * x);
}

void DampedStats::DecayTo(double t_seconds) {
  if (!initialized_) {
    last_t_ = t_seconds;
    initialized_ = true;
    return;
  }
  const double factor = DecayFactor(mode_, lambda_, t_seconds - last_t_);
  w_ = Quantize(mode_, w_ * factor);
  DecayMoments(factor);
  if (t_seconds > last_t_) {
    last_t_ = t_seconds;
  }
}

void DampedStats::AddWeighted(double x, double weight) {
  const double new_w = Quantize(mode_, w_ + weight);
  if (mode_ == DampedMode::kNicFixedPoint && new_w <= 0.0) {
    return;
  }
  InsertMoments(x, weight, new_w);
  w_ = new_w;
}

void DampedStats::Add(double x, double t_seconds) {
  if (initialized_ && t_seconds < last_t_) {
    // Late sample (MGPV delivers coarse groups in eviction order, so a
    // group's members can arrive out of timestamp order): decayed sums are
    // order-independent when the *incoming* sample is scaled by the decay
    // it would have accumulated since its own timestamp.
    AddWeighted(x, DecayFactor(mode_, lambda_, last_t_ - t_seconds));
    return;
  }
  DecayTo(t_seconds);
  AddWeighted(x, 1.0);
}

double DampedStats::mean() const {
  if (w_ <= 0.0) {
    return 0.0;
  }
  return mode_ == DampedMode::kNicFixedPoint ? mean_ : ls_ / w_;
}

double DampedStats::linear_sum() const {
  return mode_ == DampedMode::kNicFixedPoint ? mean_ * w_ : ls_;
}

double DampedStats::variance() const {
  if (w_ <= 0.0) {
    return 0.0;
  }
  if (mode_ == DampedMode::kNicFixedPoint) {
    const double v = m2_ / w_;
    return v < 0.0 ? 0.0 : v;
  }
  const double m = ls_ / w_;
  return std::fabs(ss_ / w_ - m * m);
}

void DampedStats2D::DecayResidual(double t_seconds) {
  if (!initialized_) {
    last_t_ = t_seconds;
    initialized_ = true;
    return;
  }
  const double dt = t_seconds - last_t_;
  if (dt > 0.0) {
    sr_ *= std::exp2(-lambda_ * dt);
  }
  if (t_seconds > last_t_) {
    last_t_ = t_seconds;
  }
}

void DampedStats2D::AddA(double x, double t_seconds) {
  DecayResidual(t_seconds);
  b_.DecayTo(t_seconds);
  a_.Add(x, t_seconds);
  sr_ += (x - a_.mean()) * (0.0 - b_.mean());  // B contributes no sample now.
}

void DampedStats2D::AddB(double x, double t_seconds) {
  DecayResidual(t_seconds);
  a_.DecayTo(t_seconds);
  b_.Add(x, t_seconds);
  sr_ += (0.0 - a_.mean()) * (x - b_.mean());
}

double DampedStats2D::Magnitude() const {
  const double mean_a = a_.mean();
  const double mean_b = b_.mean();
  return std::sqrt(mean_a * mean_a + mean_b * mean_b);
}

double DampedStats2D::Radius() const {
  const double var_a = a_.variance();
  const double var_b = b_.variance();
  return std::sqrt(var_a * var_a + var_b * var_b);
}

double DampedStats2D::Covariance() const {
  const double w = a_.weight() + b_.weight();
  return w > 0.0 ? sr_ / w : 0.0;
}

double DampedStats2D::CorrelationCoefficient() const {
  const double denom = std::sqrt(a_.variance()) * std::sqrt(b_.variance());
  if (denom <= 0.0) {
    return 0.0;
  }
  const double cc = Covariance() / denom;
  if (cc > 1.0) {
    return 1.0;
  }
  if (cc < -1.0) {
    return -1.0;
  }
  return cc;
}

}  // namespace superfe
