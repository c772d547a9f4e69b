#include "streaming/naive.h"

#include <algorithm>

namespace superfe {

double NaiveStats::Sum() const {
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

double NaiveStats::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double NaiveStats::Variance() const {
  if (values_.empty()) {
    return 0.0;
  }
  const double mean = Mean();
  double sum = 0.0;
  for (double v : values_) {
    sum += (v - mean) * (v - mean);
  }
  return sum / static_cast<double>(values_.size());
}

uint64_t NaiveStats::DistinctCount() const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted.size();
}

}  // namespace superfe
