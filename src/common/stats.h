// Offline summary statistics used by tests and benchmark reporting.
//
// These are the *exact* (buffered) definitions; the streaming counterparts in
// src/streaming are validated against them.
#ifndef SUPERFE_COMMON_STATS_H_
#define SUPERFE_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace superfe {

double Mean(const std::vector<double>& xs);

// Population variance (divide by n), matching the paper's Welford recurrence.
double Variance(const std::vector<double>& xs);
double StdDev(const std::vector<double>& xs);

// Fisher skewness / excess-free kurtosis (population moments).
double Skewness(const std::vector<double>& xs);
double Kurtosis(const std::vector<double>& xs);

// Population covariance / Pearson correlation of two equal-length series.
double Covariance(const std::vector<double>& xs, const std::vector<double>& ys);
double PearsonCorrelation(const std::vector<double>& xs, const std::vector<double>& ys);

// Relative error |got - want| / max(|want|, eps).
double RelativeError(double got, double want, double eps = 1e-9);

}  // namespace superfe

#endif  // SUPERFE_COMMON_STATS_H_
