// One-pass central moments up to order 4 (Pébay's update formulas),
// providing the f_skew and f_kur reducing functions of Table 5.
#ifndef SUPERFE_STREAMING_MOMENTS_H_
#define SUPERFE_STREAMING_MOMENTS_H_

#include <cstdint>

namespace superfe {

class StreamingMoments {
 public:
  void Add(double x);

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }
  // Fisher skewness m3 / m2^1.5 (population).
  double skewness() const;
  // Kurtosis m4 / m2^2 (population, not excess).
  double kurtosis() const;

  static constexpr uint32_t kNicStateBytes = 20;  // n + 4 moments as 32-bit.

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
};

}  // namespace superfe

#endif  // SUPERFE_STREAMING_MOMENTS_H_
