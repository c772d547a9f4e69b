#include "streaming/welford.h"

#include <cstdint>

namespace superfe {

void WelfordStats::Add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

namespace welford_internal {

void DrainResidue(int64_t& acc, int64_t den, int64_t& target) {
  target += acc / den;
  acc %= den;
}

void DrainResidue(NicWelfordStats::Int128& acc, int64_t den, NicWelfordStats::Int128& target) {
  // A 128-bit divide is a library call; the residue almost always fits.
  if (acc >= INT64_MIN && acc <= INT64_MAX) {
    const int64_t narrow = static_cast<int64_t>(acc);
    target += narrow / den;
    acc = narrow % den;
    return;
  }
  target += acc / den;
  acc %= den;
}

}  // namespace welford_internal

void NicWelfordStats::Add(int64_t x) {
  using welford_internal::DrainResidue;
  ++n_;
  const int64_t n = static_cast<int64_t>(n_);
  const int64_t delta = x - mean_;
  if (n_ <= kExactThreshold) {
    mean_ += delta / n;
    ++divisions_;
    Int128 step = Int128{delta} * (x - mean_) - var_;
    DrainResidue(step, n, var_);  // var_ += step / n; the remainder is dropped.
    ++divisions_;
    return;
  }
  // Division elimination (§6.2): accumulate the residue and move only its
  // whole multiples of n; the mean then tracks within one unit of the exact
  // integer Welford recurrence without any divider use on the NFP.
  mean_acc_ += delta;
  DrainResidue(mean_acc_, n, mean_);
  var_acc_ += Int128{delta} * (x - mean_) - var_;
  DrainResidue(var_acc_, n, var_);
}

}  // namespace superfe
