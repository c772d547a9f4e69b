// Histogram-based distribution features (§6.1): ft_hist is the base; f_pdf
// and f_cdf are derived from it. The paper's fixed-width bins.
#ifndef SUPERFE_STREAMING_HISTOGRAM_H_
#define SUPERFE_STREAMING_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace superfe {

// Fixed-width histogram: `bins` buckets of `width` units starting at 0;
// values beyond the last edge clamp into the final bucket.
class FixedHistogram {
 public:
  FixedHistogram(double width, int bins);

  void Add(double x);
  // Bulk insert; bin-identical to n scalar Adds (the division and the
  // truncation are exact, and both clamp a quotient beyond the top bin
  // before converting it).
  void AddBatch(const double* v, size_t n);

  uint64_t total() const { return total_; }
  int bins() const { return static_cast<int>(counts_.size()); }
  double width() const { return width_; }
  uint64_t count(int bin) const { return counts_[bin]; }

  // Normalized bucket frequencies (the feature vector form used by NPOD).
  std::vector<double> Pdf() const;
  // Cumulative distribution at bucket upper edges.
  std::vector<double> Cdf() const;

 private:
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace superfe

#endif  // SUPERFE_STREAMING_HISTOGRAM_H_
