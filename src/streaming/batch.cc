// Implementations of the batch primitives (batch.h) and the AddBatch()
// members of the streaming kernels. This TU is compiled with
// -ffp-contract=off (see CMakeLists.txt) so the scalar 4-lane loops round
// exactly like the SSE2/AVX2 paths — the determinism contract in batch.h
// depends on it.
#include "streaming/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/hash.h"
#include "streaming/histogram.h"
#include "streaming/hyperloglog.h"
#include "streaming/moments.h"
#include "streaming/simd.h"
#include "streaming/welford.h"

#if defined(__x86_64__) && !defined(SUPERFE_DISABLE_SIMD)
#include <immintrin.h>
#define SUPERFE_X86_SIMD 1
#endif

namespace superfe {
namespace batchkern {
namespace {

// ---------------------------------------------------------------------------
// Sum
// ---------------------------------------------------------------------------

double SumScalar(const double* v, size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += v[i];
    l1 += v[i + 1];
    l2 += v[i + 2];
    l3 += v[i + 3];
  }
  if (i < n) l0 += v[i++];
  if (i < n) l1 += v[i++];
  if (i < n) l2 += v[i];
  return (l0 + l1) + (l2 + l3);
}

#ifdef SUPERFE_X86_SIMD
double SumSse2(const double* v, size_t n) {
  __m128d a01 = _mm_setzero_pd();
  __m128d a23 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a01 = _mm_add_pd(a01, _mm_loadu_pd(v + i));
    a23 = _mm_add_pd(a23, _mm_loadu_pd(v + i + 2));
  }
  double lanes[4];
  _mm_storeu_pd(lanes, a01);
  _mm_storeu_pd(lanes + 2, a23);
  for (int l = 0; i < n; ++i, ++l) lanes[l] += v[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2"))) double SumAvx2(const double* v, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (int l = 0; i < n; ++i, ++l) lanes[l] += v[i];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}
#endif  // SUPERFE_X86_SIMD

// ---------------------------------------------------------------------------
// Central powers
// ---------------------------------------------------------------------------

void CentralM2Scalar(const double* v, size_t n, double c, double* m2_out) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = v[i] - c;
    const double d1 = v[i + 1] - c;
    const double d2 = v[i + 2] - c;
    const double d3 = v[i + 3] - c;
    l0 += d0 * d0;
    l1 += d1 * d1;
    l2 += d2 * d2;
    l3 += d3 * d3;
  }
  if (i < n) {
    const double d = v[i++] - c;
    l0 += d * d;
  }
  if (i < n) {
    const double d = v[i++] - c;
    l1 += d * d;
  }
  if (i < n) {
    const double d = v[i] - c;
    l2 += d * d;
  }
  *m2_out = (l0 + l1) + (l2 + l3);
}

void CentralM234Scalar(const double* v, size_t n, double c, double* m2_out,
                       double* m3_out, double* m4_out) {
  double a2[4] = {0.0, 0.0, 0.0, 0.0};
  double a3[4] = {0.0, 0.0, 0.0, 0.0};
  double a4[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double d = v[i + l] - c;
      const double d2 = d * d;
      a2[l] += d2;
      a3[l] += d2 * d;
      a4[l] += d2 * d2;
    }
  }
  for (int l = 0; i < n; ++i, ++l) {
    const double d = v[i] - c;
    const double d2 = d * d;
    a2[l] += d2;
    a3[l] += d2 * d;
    a4[l] += d2 * d2;
  }
  *m2_out = (a2[0] + a2[1]) + (a2[2] + a2[3]);
  *m3_out = (a3[0] + a3[1]) + (a3[2] + a3[3]);
  *m4_out = (a4[0] + a4[1]) + (a4[2] + a4[3]);
}

#ifdef SUPERFE_X86_SIMD
void CentralM2Sse2(const double* v, size_t n, double c, double* m2_out) {
  const __m128d cc = _mm_set1_pd(c);
  __m128d a01 = _mm_setzero_pd();
  __m128d a23 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d d01 = _mm_sub_pd(_mm_loadu_pd(v + i), cc);
    const __m128d d23 = _mm_sub_pd(_mm_loadu_pd(v + i + 2), cc);
    a01 = _mm_add_pd(a01, _mm_mul_pd(d01, d01));
    a23 = _mm_add_pd(a23, _mm_mul_pd(d23, d23));
  }
  double lanes[4];
  _mm_storeu_pd(lanes, a01);
  _mm_storeu_pd(lanes + 2, a23);
  for (int l = 0; i < n; ++i, ++l) {
    const double d = v[i] - c;
    lanes[l] += d * d;
  }
  *m2_out = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2"))) void CentralM2Avx2(const double* v, size_t n,
                                                  double c, double* m2_out) {
  const __m256d cc = _mm256_set1_pd(c);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + i), cc);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (int l = 0; i < n; ++i, ++l) {
    const double d = v[i] - c;
    lanes[l] += d * d;
  }
  *m2_out = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

__attribute__((target("avx2"))) void CentralM234Avx2(const double* v, size_t n,
                                                     double c, double* m2_out,
                                                     double* m3_out,
                                                     double* m4_out) {
  const __m256d cc = _mm256_set1_pd(c);
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  __m256d acc4 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(v + i), cc);
    const __m256d d2 = _mm256_mul_pd(d, d);
    acc2 = _mm256_add_pd(acc2, d2);
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d2, d));
    acc4 = _mm256_add_pd(acc4, _mm256_mul_pd(d2, d2));
  }
  double l2[4], l3[4], l4[4];
  _mm256_storeu_pd(l2, acc2);
  _mm256_storeu_pd(l3, acc3);
  _mm256_storeu_pd(l4, acc4);
  for (int l = 0; i < n; ++i, ++l) {
    const double d = v[i] - c;
    const double d2 = d * d;
    l2[l] += d2;
    l3[l] += d2 * d;
    l4[l] += d2 * d2;
  }
  *m2_out = (l2[0] + l2[1]) + (l2[2] + l2[3]);
  *m3_out = (l3[0] + l3[1]) + (l3[2] + l3[3]);
  *m4_out = (l4[0] + l4[1]) + (l4[2] + l4[3]);
}
#endif  // SUPERFE_X86_SIMD

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

double Sum(const double* v, size_t n) {
#ifdef SUPERFE_X86_SIMD
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx2:
      return SumAvx2(v, n);
    case SimdLevel::kSse2:
      return SumSse2(v, n);
    case SimdLevel::kScalar:
      break;
  }
#endif
  return SumScalar(v, n);
}

void CentralPowers(const double* v, size_t n, double center, double* m2_out, double* m3_out,
                   double* m4_out) {
  if (m3_out == nullptr) {
#ifdef SUPERFE_X86_SIMD
    switch (ActiveSimdLevel()) {
      case SimdLevel::kAvx2:
        CentralM2Avx2(v, n, center, m2_out);
        return;
      case SimdLevel::kSse2:
        CentralM2Sse2(v, n, center, m2_out);
        return;
      case SimdLevel::kScalar:
        break;
    }
#endif
    CentralM2Scalar(v, n, center, m2_out);
    return;
  }
#ifdef SUPERFE_X86_SIMD
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    CentralM234Avx2(v, n, center, m2_out, m3_out, m4_out);
    return;
  }
#endif
  CentralM234Scalar(v, n, center, m2_out, m3_out, m4_out);
}

void MinMax(const double* v, size_t n, double* min_out, double* max_out) {
  if (n == 0) {
    return;
  }
#ifdef SUPERFE_X86_SIMD
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    MinMaxAvx2(v, n, min_out, max_out);
    return;
  }
#endif
  MinMaxScalar(v, n, min_out, max_out);
}

void Log2BucketBatch(const double* v, size_t n, int32_t* out) {
#ifdef SUPERFE_X86_SIMD
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
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
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
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
// AddBatch members: chunked two-pass + merge for the double kernels,
// bit-exact sequential application for the integer/fixed-point kernels
// (their speedup comes from amortizing per-cell dispatch, not reordering).
// ---------------------------------------------------------------------------

void WelfordStats::AddBatch(const double* v, size_t n) {
  if (n == 0) {
    return;
  }
  const double nb = static_cast<double>(n);
  const double mean_b = batchkern::Sum(v, n) / nb;
  double m2_b = 0.0;
  batchkern::CentralPowers(v, n, mean_b, &m2_b, nullptr, nullptr);
  if (n_ == 0) {
    n_ = n;
    mean_ = mean_b;
    m2_ = m2_b;
    return;
  }
  // Chan et al. pairwise merge of (n_, mean_, m2_) with the chunk stats.
  const double na = static_cast<double>(n_);
  const double nt = na + nb;
  const double delta = mean_b - mean_;
  mean_ += delta * (nb / nt);
  m2_ += m2_b + delta * delta * (na * nb / nt);
  n_ += n;
}

void NicWelfordStats::AddBatchRounded(const double* v, size_t n) {
  // Integer residue-drain state is inherently sequential; the batch form is
  // bit-identical to n scalar Adds and exists to amortize reducer dispatch.
  for (size_t i = 0; i < n; ++i) {
    Add(static_cast<int64_t>(std::llround(v[i])));
  }
}

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
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
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

void StreamingMoments::AddBatch(const double* v, size_t n) {
  if (n == 0) {
    return;
  }
  const double nb = static_cast<double>(n);
  const double mean_b = batchkern::Sum(v, n) / nb;
  double m2_b = 0.0, m3_b = 0.0, m4_b = 0.0;
  batchkern::CentralPowers(v, n, mean_b, &m2_b, &m3_b, &m4_b);
  if (n_ == 0) {
    n_ = n;
    mean_ = mean_b;
    m2_ = m2_b;
    m3_ = m3_b;
    m4_ = m4_b;
    return;
  }
  // Pébay's pairwise combination of central moments up to order 4.
  const double na = static_cast<double>(n_);
  const double nt = na + nb;
  const double delta = mean_b - mean_;
  const double d2 = delta * delta;
  const double na_nb_nt = na * nb / nt;
  const double m4n =
      m4_ + m4_b +
      d2 * d2 * na_nb_nt * (na * na - na * nb + nb * nb) / (nt * nt) +
      6.0 * d2 * (na * na * m2_b + nb * nb * m2_) / (nt * nt) +
      4.0 * delta * (na * m3_b - nb * m3_) / nt;
  const double m3n = m3_ + m3_b + delta * d2 * na_nb_nt * (na - nb) / nt +
                     3.0 * delta * (na * m2_b - nb * m2_) / nt;
  mean_ += delta * (nb / nt);
  m2_ += m2_b + d2 * na_nb_nt;
  m3_ = m3n;
  m4_ = m4n;
  n_ += n;
}

}  // namespace superfe
