// Batch (SoA) primitives backing the AddBatch() bulk APIs of the §6.1
// streaming kernels.
//
// Determinism contract: every floating-point primitive here accumulates in
// exactly FOUR virtual lanes — lane l sums the elements with index ≡ l
// (mod 4) — and combines them as (l0+l1)+(l2+l3). The scalar fallback
// simulates the four lanes, SSE2 carries them as two 2-wide vectors, AVX2 as
// one 4-wide vector, so all dispatch levels (see streaming/simd.h) produce
// bit-identical results for the same input span. The containing translation
// unit is compiled with -ffp-contract=off so the scalar lanes cannot fuse
// into FMAs the vector paths don't issue.
//
// Order sensitivity: lane assignment depends on the span, so summing a
// stream in two AddBatch chunks can differ from one chunk in the last few
// ULPs (documented bound; see docs/ARCHITECTURE.md "Batch feature
// kernels"). Integer-domain primitives (Log2Bucket, HashU64Batch, min/max,
// histogram binning) are exact and split-invariant.
#ifndef SUPERFE_STREAMING_BATCH_H_
#define SUPERFE_STREAMING_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace superfe {
namespace batchkern {

// 4-lane sum of v[0..n).
double Sum(const double* v, size_t n);

// Sums of centered powers: m2 += (v-center)^2 and, when m3_out/m4_out are
// non-null, m3 += (v-center)^3, m4 += (v-center)^4. 4-lane. Outputs are
// overwritten, not accumulated.
void CentralPowers(const double* v, size_t n, double center, double* m2_out, double* m3_out,
                   double* m4_out);

// Min and max of v[0..n). No-op when n == 0. Exact (order-independent).
void MinMax(const double* v, size_t n, double* min_out, double* max_out);

// ft_percent log2 bucketer: 0 for v < 1 (and NaN), else
// min(floor(log2(v)) + 1, 31), computed from the IEEE-754 exponent field —
// exact at power-of-two boundaries where std::log2 rounding can misbucket.
inline int Log2Bucket(double v) {
  if (!(v >= 1.0)) {
    return 0;
  }
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const int exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  return exponent >= 31 ? 31 : exponent + 1;
}

// out[i] = Log2Bucket(v[i]); AVX2-vectorized bit extraction.
void Log2BucketBatch(const double* v, size_t n, int32_t* out);

// out[i] = the 32-bit HyperLogLog hash of v[i] (Mix64 finalizer, top half),
// matching HyperLogLog::AddU64 element-wise.
void HashU64Batch(const uint64_t* v, size_t n, uint32_t* out);

}  // namespace batchkern
}  // namespace superfe

#endif  // SUPERFE_STREAMING_BATCH_H_
