#include "ml/metrics.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace superfe {

double BinaryMetrics::Accuracy() const {
  const uint64_t total = tp + fp + tn + fn;
  return total == 0 ? 0.0 : static_cast<double>(tp + tn) / total;
}

double BinaryMetrics::Precision() const {
  return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
}

double BinaryMetrics::Recall() const {
  return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
}

double BinaryMetrics::F1() const {
  const double p = Precision();
  const double r = Recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

BinaryMetrics EvaluateBinary(const std::vector<int>& truth, const std::vector<int>& predicted) {
  assert(truth.size() == predicted.size());
  BinaryMetrics m;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] != 0) {
      (predicted[i] != 0 ? m.tp : m.fn)++;
    } else {
      (predicted[i] != 0 ? m.fp : m.tn)++;
    }
  }
  return m;
}

double RocAuc(const std::vector<int>& truth, const std::vector<double>& scores) {
  assert(truth.size() == scores.size());
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });

  // Rank sum of positives with midranks for ties.
  double rank_sum = 0.0;
  uint64_t positives = 0;
  uint64_t negatives = 0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) {
      ++j;
    }
    const double midrank = (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (size_t k = i; k < j; ++k) {
      if (truth[order[k]] != 0) {
        rank_sum += midrank;
        ++positives;
      } else {
        ++negatives;
      }
    }
    i = j;
  }
  if (positives == 0 || negatives == 0) {
    return 0.5;
  }
  const double u = rank_sum - static_cast<double>(positives) * (positives + 1) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

double MulticlassAccuracy(const std::vector<int>& truth, const std::vector<int>& predicted) {
  assert(truth.size() == predicted.size());
  if (truth.empty()) {
    return 0.0;
  }
  uint64_t correct = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == predicted[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / truth.size();
}

}  // namespace superfe
