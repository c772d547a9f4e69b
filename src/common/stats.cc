#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace superfe {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  const double mean = Mean(xs);
  double sum = 0.0;
  for (double x : xs) {
    const double d = x - mean;
    sum += d * d;
  }
  return sum / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

namespace {

double CentralMoment(const std::vector<double>& xs, int order) {
  if (xs.empty()) {
    return 0.0;
  }
  const double mean = Mean(xs);
  double sum = 0.0;
  for (double x : xs) {
    sum += std::pow(x - mean, order);
  }
  return sum / static_cast<double>(xs.size());
}

}  // namespace

double Skewness(const std::vector<double>& xs) {
  const double m2 = CentralMoment(xs, 2);
  if (m2 <= 0.0) {
    return 0.0;
  }
  return CentralMoment(xs, 3) / std::pow(m2, 1.5);
}

double Kurtosis(const std::vector<double>& xs) {
  const double m2 = CentralMoment(xs, 2);
  if (m2 <= 0.0) {
    return 0.0;
  }
  return CentralMoment(xs, 4) / (m2 * m2);
}

double Covariance(const std::vector<double>& xs, const std::vector<double>& ys) {
  assert(xs.size() == ys.size());
  if (xs.empty()) {
    return 0.0;
  }
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sum = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sum += (xs[i] - mx) * (ys[i] - my);
  }
  return sum / static_cast<double>(xs.size());
}

double PearsonCorrelation(const std::vector<double>& xs, const std::vector<double>& ys) {
  const double sx = StdDev(xs);
  const double sy = StdDev(ys);
  if (sx <= 0.0 || sy <= 0.0) {
    return 0.0;
  }
  return Covariance(xs, ys) / (sx * sy);
}

double RelativeError(double got, double want, double eps) {
  const double denom = std::max(std::fabs(want), eps);
  return std::fabs(got - want) / denom;
}

}  // namespace superfe
