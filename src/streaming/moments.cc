#include "streaming/moments.h"

#include <cmath>

namespace superfe {

void StreamingMoments::Add(double x) {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;

  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ - 4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

double StreamingMoments::skewness() const {
  if (n_ == 0 || m2_ <= 0.0) {
    return 0.0;
  }
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double StreamingMoments::kurtosis() const {
  if (n_ == 0 || m2_ <= 0.0) {
    return 0.0;
  }
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_);
}

}  // namespace superfe
