#include "streaming/histogram.h"

#include <algorithm>
#include <cassert>

namespace superfe {

FixedHistogram::FixedHistogram(double width, int bins) : width_(width) {
  assert(width > 0.0 && bins > 0);
  counts_.assign(bins, 0);
}

void FixedHistogram::Add(double x) {
  // Clamp before the cast: a quotient beyond int (a tiny width) has no
  // integer conversion.
  const int top_bin = bins() - 1;
  const double q = x / width_;
  const int bin = x <= 0.0 ? 0 : (q < top_bin ? static_cast<int>(q) : top_bin);
  ++counts_[bin];
  ++total_;
}

std::vector<double> FixedHistogram::Pdf() const {
  std::vector<double> pdf(counts_.size(), 0.0);
  if (total_ == 0) {
    return pdf;
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    pdf[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return pdf;
}

std::vector<double> FixedHistogram::Cdf() const {
  std::vector<double> cdf = Pdf();
  for (size_t i = 1; i < cdf.size(); ++i) {
    cdf[i] += cdf[i - 1];
  }
  return cdf;
}

}  // namespace superfe
