// Welford's single-pass mean/variance (§6.1, equations 1-2), plus the
// integer-arithmetic variant the FE-NIC actually runs after the
// division-elimination optimization (§6.2).
#ifndef SUPERFE_STREAMING_WELFORD_H_
#define SUPERFE_STREAMING_WELFORD_H_

#include <cstdint>

namespace superfe {

// Exact one-pass mean/variance (floating point).
class WelfordStats {
 public:
  void Add(double x);

  uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  // Population variance (matches the paper's recurrence).
  double variance() const { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }

  // State footprint when offloaded: n, mean, variance as 32-bit registers.
  static constexpr uint32_t kNicStateBytes = 12;

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Sum of squared deviations.
};

// The NFP variant: no FPU and a 1500-cycle software divider, so all state is
// integer and the per-sample division by n is eliminated (§6.2). After a
// short warm-up of real divisions, each sample's deviation accumulates in a
// residue and only whole multiples of n move into the mean and variance, so
// the integer mean tracks within one unit of the exact recurrence and still
// follows non-stationary streams. The NFP drains the residue in power-of-two
// quotient steps (comparisons and shifts only), and the cost model charges
// exactly that; the host drains it with one native division, which gives the
// same quotient and remainder. The squared-deviation products and the
// variance state are 128-bit, so samples billions of units from the mean
// (bytes/s rates) cannot overflow. The integer rounding is the (small) error
// Fig 10 measures for SuperFE.
class NicWelfordStats {
 public:
  using Int128 = __int128;

  void Add(int64_t x);

  uint64_t count() const { return n_; }
  double mean() const { return static_cast<double>(mean_); }
  double variance() const { return var_ < 0 ? 0.0 : static_cast<double>(var_); }

  // Hardware divisions issued so far (feeds the cycle model; only the short
  // warm-up uses the divider).
  uint64_t divisions_issued() const { return divisions_; }

 private:
  // Below this count a real division is used; beyond it the residue
  // accumulator takes over.
  static constexpr uint64_t kExactThreshold = 64;

  uint64_t n_ = 0;
  int64_t mean_ = 0;
  int64_t mean_acc_ = 0;
  uint64_t divisions_ = 0;
  Int128 var_ = 0;
  Int128 var_acc_ = 0;
};

// The residue drain, exposed so tests can check it against the NFP's.
namespace welford_internal {

// Moves the whole multiples of `den` (> 0) in `acc` into `target`:
// target += acc / den, acc %= den, with C++ truncation, so the residue
// keeps acc's sign. This is what the NFP's power-of-two drain computes.
void DrainResidue(int64_t& acc, int64_t den, int64_t& target);
// Same over 128 bits; divides in 64 bits whenever the residue fits.
void DrainResidue(NicWelfordStats::Int128& acc, int64_t den, NicWelfordStats::Int128& target);

}  // namespace welford_internal

}  // namespace superfe

#endif  // SUPERFE_STREAMING_WELFORD_H_
