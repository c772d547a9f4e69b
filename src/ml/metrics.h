// Classification/detection metrics used by the application studies.
#ifndef SUPERFE_ML_METRICS_H_
#define SUPERFE_ML_METRICS_H_

#include <cstdint>
#include <vector>

namespace superfe {

struct BinaryMetrics {
  uint64_t tp = 0;
  uint64_t fp = 0;
  uint64_t tn = 0;
  uint64_t fn = 0;

  double Accuracy() const;
  double Precision() const;
  double Recall() const;  // = TPR.
  double F1() const;
};

// Confusion counts from binary predictions.
BinaryMetrics EvaluateBinary(const std::vector<int>& truth, const std::vector<int>& predicted);

// Threshold-free ROC AUC from anomaly scores (higher = more anomalous),
// computed by rank statistics (Mann-Whitney U).
double RocAuc(const std::vector<int>& truth, const std::vector<double>& scores);

// Multi-class accuracy.
double MulticlassAccuracy(const std::vector<int>& truth, const std::vector<int>& predicted);

}  // namespace superfe

#endif  // SUPERFE_ML_METRICS_H_
