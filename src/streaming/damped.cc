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

}  // namespace damped_internal

namespace {

using damped_internal::Quantize;

// The kNicFixedPoint decay factor: exp2 via a fractional LUT with linear
// interpolation, emitted on the 16.16 grid; the exponent keeps full
// fixed-point precision. `exact` is the unrounded 2^(-λ dt), at most 1 for
// the validator's λ >= 0.
double FixedFactor(double exact) {
  const double scaled = exact * damped_internal::kFixedScale;
  return (scaled < 4503599627370496.0 ? damped_internal::RoundToInteger(scaled)
                                      : std::nearbyint(scaled)) /
         damped_internal::kFixedScale;
}

// Decay factor 2^(-lambda dt) under the mode's arithmetic; 1 for dt <= 0.
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

}  // namespace

DampedStep DampedWindow::Advance(double lambda, DampedMode mode, bool one_sided, bool two_sided,
                                 const DampedClock& clock, double t_seconds, bool forward) {
  DampedStep step;
  step.forward = forward;
  if (clock.started) {
    step.decay_other = true;
    if (t_seconds < clock.last_t) {
      // Late sample: scaled by the decay it would have accumulated since
      // its own timestamp (DampedStats::Add).
      step.weight = DecayFactor(mode, lambda, clock.last_t - t_seconds);
    } else {
      step.decay_own = true;
      const double dt = t_seconds - clock.last_t;
      if (dt > 0.0) {
        // One exp2 serves the residual and, rounded by the mode, the sides.
        step.decay_residual = true;
        step.residual = std::exp2(-lambda * dt);
        switch (mode) {
          case DampedMode::kExactDouble:
            step.factor = step.residual;
            break;
          case DampedMode::kNicFixedPoint:
            step.factor = FixedFactor(step.residual);
            break;
          case DampedMode::kFloat32:
            step.factor = DecayFactor(mode, lambda, dt);
            break;
        }
      }
    }
  }
  const auto decay = [&](DampedSide side) { w_[side] = Quantize(mode, w_[side] * step.factor); };
  const auto insert = [&](DampedSide side) {
    const double new_w = Quantize(mode, w_[side] + step.weight);
    step.insert[side] = mode != DampedMode::kNicFixedPoint || !(new_w <= 0.0);
    if (step.insert[side]) {
      w_[side] = new_w;
    }
  };
  if (one_sided) {
    if (step.decay_own) {
      decay(kDampedUndirected);
    }
    insert(kDampedUndirected);
  }
  if (two_sided) {
    const DampedSide own = forward ? kDampedA : kDampedB;
    if (step.decay_other) {
      decay(forward ? kDampedB : kDampedA);
    }
    if (step.decay_own) {
      decay(own);
    }
    insert(own);
  }
  for (int side = 0; side < 3; ++side) {
    step.w[side] = w_[side];
  }
  return step;
}

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

void DampedStats::ApplySide(const DampedStep& step, DampedSide side, bool decay, bool insert,
                            double x) {
  if (decay) {
    DecayMoments(step.factor);
  }
  if (insert && step.insert[side]) {
    InsertMoments(x, step.weight, step.w[side]);
  }
  w_ = step.w[side];
}

void DampedStats::Apply(double x, const DampedStep& step) {
  ApplySide(step, kDampedUndirected, step.decay_own, /*insert=*/true, x);
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

void DampedStats2D::Apply(double x, const DampedStep& step) {
  if (step.decay_residual) {
    sr_ *= step.residual;
  }
  if (step.forward) {
    b_.ApplySide(step, kDampedB, step.decay_other, /*insert=*/false, x);
    a_.ApplySide(step, kDampedA, step.decay_own, /*insert=*/true, x);
    sr_ += (x - a_.mean()) * (0.0 - b_.mean());
  } else {
    a_.ApplySide(step, kDampedA, step.decay_other, /*insert=*/false, x);
    b_.ApplySide(step, kDampedB, step.decay_own, /*insert=*/true, x);
    sr_ += (0.0 - a_.mean()) * (x - b_.mean());
  }
}

double DampedStats2D::MagnitudeOf(double mean_a, double mean_b) {
  return std::sqrt(mean_a * mean_a + mean_b * mean_b);
}

double DampedStats2D::RadiusOf(double var_a, double var_b) {
  return std::sqrt(var_a * var_a + var_b * var_b);
}

double DampedStats2D::Covariance() const {
  const double w = a_.weight() + b_.weight();
  return w > 0.0 ? sr_ / w : 0.0;
}

double DampedStats2D::CorrelationOf(double cov, double std_a, double std_b) {
  const double denom = std_a * std_b;
  if (denom <= 0.0) {
    return 0.0;
  }
  const double cc = cov / denom;
  if (cc > 1.0) {
    return 1.0;
  }
  if (cc < -1.0) {
    return -1.0;
  }
  return cc;
}

}  // namespace superfe
