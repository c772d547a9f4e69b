// Batch (SoA) primitives backing the bulk APIs of the integer-domain §6.1
// streaming kernels: min/max, the ft_percent log2 bucketer, HyperLogLog
// hashing and histogram binning (FixedHistogram::AddBatch).
//
// Determinism contract: every primitive here is exact and split-invariant —
// it compares, extracts bits or hashes integers, and never accumulates a
// floating-point sum — so every dispatch level (see streaming/simd.h) and
// every split of a span give the same result. The double-precision families
// (sum, Welford, moments) have no batch kernel: Reducer::UpdateBatch folds
// them value by value in arrival order (docs/ARCHITECTURE.md, "Exactness
// contract").
#ifndef SUPERFE_STREAMING_BATCH_H_
#define SUPERFE_STREAMING_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace superfe {
namespace batchkern {

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
