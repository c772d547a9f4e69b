// Naive (buffer-everything) feature computation, the baseline of Fig 15.
//
// The two-pass algorithms store the entire per-group data stream before
// computing statistics; memory therefore grows linearly with traffic while
// the streaming algorithms hold O(1) state per group.
#ifndef SUPERFE_STREAMING_NAIVE_H_
#define SUPERFE_STREAMING_NAIVE_H_

#include <cstdint>
#include <vector>

namespace superfe {

class NaiveStats {
 public:
  void Add(double x) { values_.push_back(x); }

  uint64_t count() const { return values_.size(); }
  double Sum() const;
  double Mean() const;      // First pass.
  double Variance() const;  // Second pass over the buffer.
  uint64_t DistinctCount() const;  // Exact cardinality via sort-unique.

  const std::vector<double>& values() const { return values_; }

  // Bytes buffered (8 per sample) — the Fig 15 memory metric.
  uint64_t MemoryBytes() const { return values_.size() * sizeof(double); }

 private:
  std::vector<double> values_;
};

}  // namespace superfe

#endif  // SUPERFE_STREAMING_NAIVE_H_
