// Implementations of the batch primitives (batch.h) and the bulk members of
// HyperLogLog and FixedHistogram. Each is exact: every dispatch level and
// every split of a span give the same state. Spans under four take the
// scalar loop, which a vector step would not start (per-packet collection
// and the software baseline feed one-row runs).
#include "streaming/batch.h"

#include "common/hash.h"
#include "streaming/histogram.h"
#include "streaming/hyperloglog.h"
#include "streaming/simd.h"

#if defined(__x86_64__) && !defined(SUPERFE_DISABLE_SIMD)
#include <immintrin.h>
#define SUPERFE_X86_SIMD 1
#endif

namespace superfe {
namespace batchkern {
namespace {

// ---------------------------------------------------------------------------
// Min / max
// ---------------------------------------------------------------------------

void MinMaxScalar(const double* v, size_t n, double* min_out, double* max_out) {
  double lo = v[0];
  double hi = v[0];
  for (size_t i = 1; i < n; ++i) {
    lo = v[i] < lo ? v[i] : lo;
    hi = v[i] > hi ? v[i] : hi;
  }
  *min_out = lo;
  *max_out = hi;
}

#ifdef SUPERFE_X86_SIMD
__attribute__((target("avx2"))) void MinMaxAvx2(const double* v, size_t n,
                                                double* min_out,
                                                double* max_out) {
  __m256d lo = _mm256_set1_pd(v[0]);
  __m256d hi = lo;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    lo = _mm256_min_pd(lo, x);
    hi = _mm256_max_pd(hi, x);
  }
  double lolanes[4], hilanes[4];
  _mm256_storeu_pd(lolanes, lo);
  _mm256_storeu_pd(hilanes, hi);
  double mn = lolanes[0], mx = hilanes[0];
  for (int l = 1; l < 4; ++l) {
    mn = lolanes[l] < mn ? lolanes[l] : mn;
    mx = hilanes[l] > mx ? hilanes[l] : mx;
  }
  for (; i < n; ++i) {
    mn = v[i] < mn ? v[i] : mn;
    mx = v[i] > mx ? v[i] : mx;
  }
  *min_out = mn;
  *max_out = mx;
}
#endif  // SUPERFE_X86_SIMD

// ---------------------------------------------------------------------------
// Log2 bucketer / HLL hashing (integer domain — exact at every level)
// ---------------------------------------------------------------------------

#ifdef SUPERFE_X86_SIMD
__attribute__((target("avx2"))) void Log2BucketBatchAvx2(const double* v,
                                                         size_t n,
                                                         int32_t* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256i exp_mask = _mm256_set1_epi64x(0x7ff);
  const __m256i bias_minus_one = _mm256_set1_epi64x(1022);
  const __m256i cap_e = _mm256_set1_epi64x(1053);  // e > 1053 => bucket > 31.
  const __m256i thirty_one = _mm256_set1_epi64x(31);
  const __m256i pack_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    const __m256i bits = _mm256_castpd_si256(x);
    const __m256i e =
        _mm256_and_si256(_mm256_srli_epi64(bits, 52), exp_mask);
    __m256i bucket = _mm256_sub_epi64(e, bias_minus_one);
    bucket = _mm256_blendv_epi8(bucket, thirty_one,
                                _mm256_cmpgt_epi64(e, cap_e));
    // Zero the lanes where !(x >= 1) — covers x < 1, negatives, and NaN.
    bucket = _mm256_and_si256(
        bucket, _mm256_castpd_si256(_mm256_cmp_pd(x, one, _CMP_GE_OQ)));
    const __m128i packed = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(bucket, pack_even));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
  }
  for (; i < n; ++i) {
    out[i] = Log2Bucket(v[i]);
  }
}

// Low 64 bits of a 64x64 multiply, four lanes at a time.
__attribute__((target("avx2"))) inline __m256i Mul64Lo(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                       _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void HashU64BatchAvx2(const uint64_t* v,
                                                      size_t n,
                                                      uint32_t* out) {
  // Mix64 is the splitmix64 finalizer; constants must match common/hash.cc.
  const __m256i inc = _mm256_set1_epi64x(0x9e3779b97f4a7c15ull);
  const __m256i mul1 = _mm256_set1_epi64x(0xbf58476d1ce4e5b9ull);
  const __m256i mul2 = _mm256_set1_epi64x(0x94d049bb133111ebull);
  const __m256i pack_odd = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    x = _mm256_add_epi64(x, inc);
    x = Mul64Lo(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), mul1);
    x = Mul64Lo(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), mul2);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
    // The HLL hash is the top 32 bits: the odd dwords of each 64-bit lane.
    const __m128i packed =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(x, pack_odd));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<uint32_t>(Mix64(v[i]) >> 32);
  }
}
#endif  // SUPERFE_X86_SIMD

}  // namespace

void MinMax(const double* v, size_t n, double* min_out, double* max_out) {
  if (n == 0) {
    return;
  }
#ifdef SUPERFE_X86_SIMD
  if (n >= 4 && ActiveSimdLevel() == SimdLevel::kAvx2) {
    MinMaxAvx2(v, n, min_out, max_out);
    return;
  }
#endif
  MinMaxScalar(v, n, min_out, max_out);
}

void Log2BucketBatch(const double* v, size_t n, int32_t* out) {
#ifdef SUPERFE_X86_SIMD
  if (n >= 4 && ActiveSimdLevel() == SimdLevel::kAvx2) {
    Log2BucketBatchAvx2(v, n, out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    out[i] = Log2Bucket(v[i]);
  }
}

void HashU64Batch(const uint64_t* v, size_t n, uint32_t* out) {
#ifdef SUPERFE_X86_SIMD
  if (n >= 4 && ActiveSimdLevel() == SimdLevel::kAvx2) {
    HashU64BatchAvx2(v, n, out);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint32_t>(Mix64(v[i]) >> 32);
  }
}

}  // namespace batchkern

// ---------------------------------------------------------------------------
// Bulk members: vectorized hashing and binning, bin- and register-identical
// to elementwise inserts.
// ---------------------------------------------------------------------------

void HyperLogLog::AddHashBatch(const uint32_t* hashes, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    AddHash(hashes[i]);
  }
}

void HyperLogLog::AddU64Batch(const uint64_t* values, size_t n) {
  constexpr size_t kChunk = 256;
  uint32_t hashes[kChunk];
  while (n > 0) {
    const size_t m = n < kChunk ? n : kChunk;
    batchkern::HashU64Batch(values, m, hashes);
    AddHashBatch(hashes, m);
    values += m;
    n -= m;
  }
}

namespace {

#ifdef SUPERFE_X86_SIMD
__attribute__((target("avx2"))) void HistogramAvx2(const double* v, size_t n,
                                                   double width, int top_bin,
                                                   uint64_t* counts) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d w = _mm256_set1_pd(width);
  const __m256d top = _mm256_set1_pd(top_bin);
  const __m256i pack_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  alignas(16) int32_t b[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    // Clamp the quotient to the top bin before the truncating convert, as
    // the scalar loop does (min_pd returns its second operand, the top bin,
    // for NaN); IEEE division is exact either way. Lanes with x <= 0 are
    // zeroed below, whatever their quotient converted to.
    __m128i bin = _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_div_pd(x, w), top));
    const __m256i le0 =
        _mm256_castpd_si256(_mm256_cmp_pd(x, zero, _CMP_LE_OQ));
    bin = _mm_andnot_si128(
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(le0, pack_even)),
        bin);
    _mm_store_si128(reinterpret_cast<__m128i*>(b), bin);
    ++counts[b[0]];
    ++counts[b[1]];
    ++counts[b[2]];
    ++counts[b[3]];
  }
  for (; i < n; ++i) {
    const double x = v[i];
    const double q = x / width;
    ++counts[x <= 0.0 ? 0 : (q < top_bin ? static_cast<int>(q) : top_bin)];
  }
}
#endif  // SUPERFE_X86_SIMD

}  // namespace

void FixedHistogram::AddBatch(const double* v, size_t n) {
  const int top_bin = bins() - 1;
  uint64_t* counts = counts_.data();
#ifdef SUPERFE_X86_SIMD
  if (n >= 4 && ActiveSimdLevel() == SimdLevel::kAvx2) {
    HistogramAvx2(v, n, width_, top_bin, counts);
    total_ += n;
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    const double x = v[i];
    const double q = x / width_;  // Clamped before the cast, as in Add().
    ++counts[x <= 0.0 ? 0 : (q < top_bin ? static_cast<int>(q) : top_bin)];
  }
  total_ += n;
}

}  // namespace superfe
