// The damped-lane kernels (damped_lanes.h). This translation unit is built
// with -ffp-contract=off (see CMakeLists.txt): the scalar reference must
// round every product and sum on its own, as the AVX2 path does.
#include "streaming/damped_lanes.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "streaming/simd.h"

#if defined(__x86_64__) && !defined(SUPERFE_DISABLE_SIMD)
#include <immintrin.h>
#define SUPERFE_X86_SIMD 1
#endif

namespace superfe {
namespace damped_lanes {
namespace {

constexpr DampedMode kNic = DampedMode::kNicFixedPoint;
constexpr DampedMode kF32 = DampedMode::kFloat32;
constexpr double kNoSample = -std::numeric_limits<double>::infinity();

// Typed view of a block (layout in damped_lanes.h); T is double or const
// double.
template <typename T>
struct View {
  T* w[3];  // Undirected, A, B.
  T* m1;
  T* q1;
  T* m[2];  // Side A, side B.
  T* q[2];
  T* sr;
  T* clock;

  View(const Plan& plan, T* block) {
    const size_t windows = plan.windows();
    for (int side = 0; side < 3; ++side) {
      w[side] = block + side * windows;
    }
    m1 = block + 3 * windows;
    q1 = m1 + plan.lanes1;
    m[0] = q1 + plan.lanes1;
    q[0] = m[0] + plan.lanes2;
    m[1] = q[0] + plan.lanes2;
    q[1] = m[1] + plan.lanes2;
    sr = q[1] + plan.lanes2;
    clock = sr + plan.lanes2;
  }
};

// One sample's step: the flags every window shares, and per window the side
// decay factor, the sample's weight (the decay since its own time for a late
// sample, else 1), the residual factor (1 when time did not move on) and
// whether the undirected and the sample's-side inserts proceed (1 or 0:
// fixed point drops a sample whose weight rounds to 0).
struct Step {
  bool decay_own = false;    // The sample's side decays: neither a first
                             // nor a late sample.
  bool decay_other = false;  // The other side decays: not a first sample.
  double* factor = nullptr;
  double* weight = nullptr;
  double* residual = nullptr;
  double* insert_u = nullptr;
  double* insert_own = nullptr;

  Step(double* scratch, size_t windows)
      : factor(scratch),
        weight(scratch + windows),
        residual(scratch + 2 * windows),
        insert_u(scratch + 3 * windows),
        insert_own(scratch + 4 * windows) {}
};

// ---------------------------------------------------------------------------
// Scalar reference
// ---------------------------------------------------------------------------

// The mode's rounding of a freshly computed state value.
template <DampedMode M>
inline double Q(double v) {
  if constexpr (M == kNic) {
    return damped_internal::QuantizeFixed(v);
  } else if constexpr (M == kF32) {
    return damped_internal::RoundToFloat(v);
  } else {
    return v;
  }
}

// The flags and each window's factors: the scalar part of the window step,
// one libm exp2 per window (two in float32 mode, which rounds its exponent
// separately).
template <DampedMode M>
void StepFactors(const Plan& plan, double last_t, double t, Step& step) {
  const bool started = last_t != kNoSample;
  const bool late = started && t < last_t;
  step.decay_other = started;
  step.decay_own = started && !late;
  const double dt = t - last_t;
  for (size_t i = 0; i < plan.windows(); ++i) {
    const double lambda = plan.lambdas[i];
    double factor = 1.0;
    double weight = 1.0;
    double residual = 1.0;
    if (late) {
      weight = damped_internal::DecayFactor(M, lambda, last_t - t);
    } else if (step.decay_own && dt > 0.0) {
      residual = std::exp2(-lambda * dt);
      if constexpr (M == kNic) {
        factor = damped_internal::FixedFactor(residual);
      } else if constexpr (M == kF32) {
        factor = damped_internal::DecayFactor(M, lambda, dt);
      } else {
        factor = residual;
      }
    }
    step.factor[i] = factor;
    step.weight[i] = weight;
    step.residual[i] = residual;
  }
}

// A weight's insert: proceeds unless fixed point rounds the new weight to
// 0 or less. Returns the insert flag.
template <DampedMode M>
inline double InsertWeight(double& w, double weight) {
  const double new_w = Q<M>(w + weight);
  if (M == kNic && new_w <= 0.0) {
    return 0.0;
  }
  w = new_w;
  return 1.0;
}

// Windows [begin, end): the side weights and insert flags.
template <DampedMode M>
void WeightsScalar(const Step& step, const View<double>& b, bool forward, bool one_sided,
                   bool two_sided, size_t begin, size_t end) {
  double* own = b.w[forward ? 1 : 2];
  double* other = b.w[forward ? 2 : 1];
  for (size_t i = begin; i < end; ++i) {
    const double f = step.factor[i];
    if (one_sided) {
      if (step.decay_own) {
        b.w[0][i] = Q<M>(b.w[0][i] * f);
      }
      step.insert_u[i] = InsertWeight<M>(b.w[0][i], step.weight[i]);
    }
    if (two_sided) {
      if (step.decay_other) {
        other[i] = Q<M>(other[i] * f);
      }
      if (step.decay_own) {
        own[i] = Q<M>(own[i] * f);
      }
      step.insert_own[i] = InsertWeight<M>(own[i], step.weight[i]);
    }
  }
}

// Decays a side: fixed point keeps the Welford form (§6.1), whose mean is a
// location estimate and does not decay; LS and SS both decay.
template <DampedMode M>
inline void Decay(double& m, double& q, double f) {
  if constexpr (M != kNic) {
    m = Q<M>(m * f);
  }
  q = Q<M>(q * f);
}

// Inserts x with the sample weight g into a side whose weight is now w.
template <DampedMode M>
inline void Insert(double& m, double& q, double x, double g, double w) {
  if constexpr (M == kNic) {
    // Weighted damped Welford: no SS/w - mean^2 cancellation.
    const double delta = x - m;
    const double new_m = Q<M>(m + g * delta / w);
    q = Q<M>(q + g * delta * (x - new_m));
    m = new_m;
  } else {
    // LS/SS: the textbook decayed sums, and in float32 the original
    // Kitsune implementation (AfterImage).
    m = Q<M>(m + g * x);
    q = Q<M>(q + g * x * x);
  }
}

template <DampedMode M>
inline double Mean(double m, double w) {
  if (w <= 0.0) {
    return 0.0;
  }
  return M == kNic ? m : m / w;
}

template <DampedMode M>
inline double LinearSum(double m, double w) {
  return M == kNic ? m * w : m;
}

template <DampedMode M>
inline double Variance(double m, double q, double w) {
  if (w <= 0.0) {
    return 0.0;
  }
  if constexpr (M == kNic) {
    const double v = q / w;
    return v < 0.0 ? 0.0 : v;
  } else {
    const double mean = m / w;
    return std::fabs(q / w - mean * mean);
  }
}

template <DampedMode M>
inline void Lane1(const Step& step, const View<double>& b, size_t lane, size_t window,
                  double x) {
  if (step.decay_own) {
    Decay<M>(b.m1[lane], b.q1[lane], step.factor[window]);
  }
  if (M != kNic || step.insert_u[window] != 0.0) {
    Insert<M>(b.m1[lane], b.q1[lane], x, step.weight[window], b.w[0][window]);
  }
}

// A two-sided lane: the other side decays, the sample's side decays and
// takes the sample, and the residual sum decays and adds the product of
// each side's deviation (0 for the side without a sample), in A·B order.
template <DampedMode M, bool kForward>
inline void Lane2(const Step& step, const View<double>& b, size_t lane, size_t window,
                  double x) {
  constexpr int own = kForward ? 0 : 1;
  constexpr int other = 1 - own;
  double& m_own = b.m[own][lane];
  double& q_own = b.q[own][lane];
  double& m_other = b.m[other][lane];
  double& q_other = b.q[other][lane];
  const double w_own = b.w[1 + own][window];
  const double w_other = b.w[1 + other][window];
  const double f = step.factor[window];
  if (step.decay_other) {
    Decay<M>(m_other, q_other, f);
  }
  if (step.decay_own) {
    Decay<M>(m_own, q_own, f);
  }
  if (M != kNic || step.insert_own[window] != 0.0) {
    Insert<M>(m_own, q_own, x, step.weight[window], w_own);
  }
  double& sr = b.sr[lane];
  sr *= step.residual[window];
  const double d_own = x - Mean<M>(m_own, w_own);
  const double d_other = 0.0 - Mean<M>(m_other, w_other);
  sr += kForward ? d_own * d_other : d_other * d_own;
}

template <DampedMode M, bool kForward>
void RunScalar(const Step& step, const View<double>& b, const Run& run, double x, size_t begin) {
  for (size_t k = begin; k < run.count; ++k) {
    if (run.two_sided) {
      Lane2<M, kForward>(step, b, run.lane + k, run.window + k, x);
    } else {
      Lane1<M>(step, b, run.lane + k, run.window + k, x);
    }
  }
}

// The statistics of a run's lanes from `begin` on, into stats.
template <DampedMode M>
void StatsScalar(const Plan& plan, const View<const double>& b, const Run& run, bool forward,
                 double* stats, size_t begin) {
  const size_t lanes = plan.lanes();
  for (size_t k = begin; k < run.count; ++k) {
    const size_t lane = run.lane + k;
    const size_t window = run.window + k;
    double* out = stats + plan.StatsLane(run, static_cast<uint32_t>(k));
    if (!run.two_sided) {
      const double w = b.w[0][window];
      out[kSum * lanes] = LinearSum<M>(b.m1[lane], w);
      out[kMean * lanes] = Mean<M>(b.m1[lane], w);
      if (run.tier >= kTierVar) {
        const double var = Variance<M>(b.m1[lane], b.q1[lane], w);
        out[kVar * lanes] = var;
        out[kStd * lanes] = std::sqrt(var);
      }
      continue;
    }
    const int own = forward ? 0 : 1;
    const double w_own = b.w[1 + own][window];
    out[kSum * lanes] = LinearSum<M>(b.m[own][lane], w_own);
    out[kMean * lanes] = Mean<M>(b.m[own][lane], w_own);
    if (run.tier == kTierVar) {
      const double var = Variance<M>(b.m[own][lane], b.q[own][lane], w_own);
      out[kVar * lanes] = var;
      out[kStd * lanes] = std::sqrt(var);
    } else if (run.tier == kTierPair) {
      const double w_a = b.w[1][window];
      const double w_b = b.w[2][window];
      const double mean_a = Mean<M>(b.m[0][lane], w_a);
      const double mean_b = Mean<M>(b.m[1][lane], w_b);
      const double var_a = Variance<M>(b.m[0][lane], b.q[0][lane], w_a);
      const double var_b = Variance<M>(b.m[1][lane], b.q[1][lane], w_b);
      const double std_a = std::sqrt(var_a);
      const double std_b = std::sqrt(var_b);
      out[kVar * lanes] = forward ? var_a : var_b;
      out[kStd * lanes] = forward ? std_a : std_b;
      out[kMag * lanes] = std::sqrt(mean_a * mean_a + mean_b * mean_b);
      out[kRadius * lanes] = std::sqrt(var_a * var_a + var_b * var_b);
      const double w = w_a + w_b;
      const double cov = w > 0.0 ? b.sr[lane] / w : 0.0;
      out[kCov * lanes] = cov;
      const double denom = std_a * std_b;
      double pcc = 0.0;
      if (!(denom <= 0.0)) {
        pcc = cov / denom;
        if (pcc > 1.0) {
          pcc = 1.0;
        } else if (pcc < -1.0) {
          pcc = -1.0;
        }
      }
      out[kPcc * lanes] = pcc;
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2: four lanes (or windows) per step, the scalar reference for the rest.
// ---------------------------------------------------------------------------

#ifdef SUPERFE_X86_SIMD

#define SUPERFE_AVX2 __attribute__((target("avx2")))

SUPERFE_AVX2 inline __m256d Load(const double* p) { return _mm256_loadu_pd(p); }

// Clears the upper halves of the vector registers before the scalar
// reference takes a tail: it is built for the x86-64 baseline (legacy SSE
// encoding), and SSE code run with dirty upper halves stalls. GCC 12 leaves
// the vzeroupper out when it turns that call into a jump; an exact-mode run
// measured 7x slower for it.
SUPERFE_AVX2 inline void LeaveAvx() { _mm256_zeroupper(); }
SUPERFE_AVX2 inline void Store(double* p, __m256d v) { _mm256_storeu_pd(p, v); }

// QuantizeFixed on four values: the 16.16 grid by adding and subtracting
// 2^52, 24 significant bits on the bit pattern, +0 for ±0; a vector holding
// ±inf or NaN takes the scalar rounding.
SUPERFE_AVX2 inline __m256d QuantizeFixed4(__m256d v) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d abs = _mm256_andnot_pd(sign, v);
  if (_mm256_movemask_pd(_mm256_cmp_pd(abs, _mm256_set1_pd(DBL_MAX), _CMP_NLE_UQ)) != 0) {
    double lanes[4];
    Store(lanes, v);
    for (double& lane : lanes) {
      lane = damped_internal::QuantizeFixed(lane);
    }
    return Load(lanes);
  }
  const __m256d two52 = _mm256_set1_pd(4503599627370496.0);
  const __m256d k = _mm256_sub_pd(
      _mm256_add_pd(_mm256_mul_pd(abs, _mm256_set1_pd(damped_internal::kFixedScale)), two52),
      two52);
  // k / 2^16 is exact, so the product by 2^-16 is the quotient.
  const __m256d grid = _mm256_mul_pd(_mm256_or_pd(k, _mm256_and_pd(v, sign)),
                                     _mm256_set1_pd(1.0 / damped_internal::kFixedScale));
  const __m256i bits = _mm256_castpd_si256(v);
  const __m256i odd = _mm256_and_si256(_mm256_srli_epi64(bits, 29), _mm256_set1_epi64x(1));
  const __m256i wide = _mm256_and_si256(
      _mm256_add_epi64(_mm256_add_epi64(bits, _mm256_set1_epi64x((int64_t{1} << 28) - 1)), odd),
      _mm256_set1_epi64x(~((int64_t{1} << 29) - 1)));
  const __m256d small = _mm256_cmp_pd(abs, _mm256_set1_pd(16777216.0), _CMP_LT_OQ);
  const __m256d rounded = _mm256_blendv_pd(_mm256_castsi256_pd(wide), grid, small);
  return _mm256_andnot_pd(_mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_EQ_OQ), rounded);
}

template <DampedMode M>
SUPERFE_AVX2 inline __m256d Q4(__m256d v) {
  if constexpr (M == kNic) {
    return QuantizeFixed4(v);
  } else if constexpr (M == kF32) {
    return _mm256_cvtps_pd(_mm256_cvtpd_ps(v));
  } else {
    return v;
  }
}

// All-ones where !(v <= 0), NaN included.
SUPERFE_AVX2 inline __m256d Positive4(__m256d v) {
  return _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NLE_UQ);
}

template <DampedMode M>
SUPERFE_AVX2 inline __m256d InsertWeight4(__m256d& w, __m256d weight) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d new_w = Q4<M>(_mm256_add_pd(w, weight));
  if constexpr (M == kNic) {
    const __m256d proceeds = Positive4(new_w);
    w = _mm256_blendv_pd(w, new_w, proceeds);
    return _mm256_and_pd(proceeds, one);
  } else {
    w = new_w;
    return one;
  }
}

template <DampedMode M>
SUPERFE_AVX2 void WeightsAvx2(const Step& step, const View<double>& b, bool forward,
                              bool one_sided, bool two_sided, size_t windows) {
  double* own = b.w[forward ? 1 : 2];
  double* other = b.w[forward ? 2 : 1];
  size_t i = 0;
  for (; i + 4 <= windows; i += 4) {
    const __m256d f = Load(step.factor + i);
    const __m256d weight = Load(step.weight + i);
    if (one_sided) {
      __m256d w = Load(b.w[0] + i);
      if (step.decay_own) {
        w = Q4<M>(_mm256_mul_pd(w, f));
      }
      Store(step.insert_u + i, InsertWeight4<M>(w, weight));
      Store(b.w[0] + i, w);
    }
    if (two_sided) {
      if (step.decay_other) {
        Store(other + i, Q4<M>(_mm256_mul_pd(Load(other + i), f)));
      }
      __m256d w = Load(own + i);
      if (step.decay_own) {
        w = Q4<M>(_mm256_mul_pd(w, f));
      }
      Store(step.insert_own + i, InsertWeight4<M>(w, weight));
      Store(own + i, w);
    }
  }
  LeaveAvx();
  WeightsScalar<M>(step, b, forward, one_sided, two_sided, i, windows);
}

template <DampedMode M>
SUPERFE_AVX2 inline void Decay4(__m256d& m, __m256d& q, __m256d f) {
  if constexpr (M != kNic) {
    m = Q4<M>(_mm256_mul_pd(m, f));
  }
  q = Q4<M>(_mm256_mul_pd(q, f));
}

// Insert (the scalar reference's) where `proceeds` is non-zero.
template <DampedMode M>
SUPERFE_AVX2 inline void Insert4(__m256d& m, __m256d& q, __m256d x, __m256d g, __m256d w,
                                 __m256d proceeds) {
  if constexpr (M == kNic) {
    const __m256d mask = _mm256_cmp_pd(proceeds, _mm256_setzero_pd(), _CMP_NEQ_OQ);
    const __m256d delta = _mm256_sub_pd(x, m);
    const __m256d g_delta = _mm256_mul_pd(g, delta);
    const __m256d new_m = Q4<M>(_mm256_add_pd(m, _mm256_div_pd(g_delta, w)));
    const __m256d new_q =
        Q4<M>(_mm256_add_pd(q, _mm256_mul_pd(g_delta, _mm256_sub_pd(x, new_m))));
    m = _mm256_blendv_pd(m, new_m, mask);
    q = _mm256_blendv_pd(q, new_q, mask);
  } else {
    const __m256d g_x = _mm256_mul_pd(g, x);
    m = Q4<M>(_mm256_add_pd(m, g_x));
    q = Q4<M>(_mm256_add_pd(q, _mm256_mul_pd(g_x, x)));
  }
}

template <DampedMode M>
SUPERFE_AVX2 inline __m256d Mean4(__m256d m, __m256d w) {
  const __m256d empty = _mm256_cmp_pd(w, _mm256_setzero_pd(), _CMP_LE_OQ);
  return _mm256_andnot_pd(empty, M == kNic ? m : _mm256_div_pd(m, w));
}

template <DampedMode M>
SUPERFE_AVX2 inline __m256d LinearSum4(__m256d m, __m256d w) {
  return M == kNic ? _mm256_mul_pd(m, w) : m;
}

template <DampedMode M>
SUPERFE_AVX2 inline __m256d Variance4(__m256d m, __m256d q, __m256d w) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d empty = _mm256_cmp_pd(w, zero, _CMP_LE_OQ);
  __m256d var;
  if constexpr (M == kNic) {
    var = _mm256_div_pd(q, w);
    var = _mm256_andnot_pd(_mm256_cmp_pd(var, zero, _CMP_LT_OQ), var);
  } else {
    const __m256d mean = _mm256_div_pd(m, w);
    var = _mm256_andnot_pd(_mm256_set1_pd(-0.0),
                           _mm256_sub_pd(_mm256_div_pd(q, w), _mm256_mul_pd(mean, mean)));
  }
  return _mm256_andnot_pd(empty, var);
}

template <DampedMode M, bool kForward>
SUPERFE_AVX2 void RunAvx2(const Step& step, const View<double>& b, const Run& run, double x) {
  const __m256d vx = _mm256_set1_pd(x);
  const __m256d zero = _mm256_setzero_pd();
  size_t k = 0;
  if (!run.two_sided) {
    for (; k + 4 <= run.count; k += 4) {
      const size_t lane = run.lane + k;
      const size_t window = run.window + k;
      __m256d m = Load(b.m1 + lane);
      __m256d q = Load(b.q1 + lane);
      if (step.decay_own) {
        Decay4<M>(m, q, Load(step.factor + window));
      }
      Insert4<M>(m, q, vx, Load(step.weight + window), Load(b.w[0] + window),
                 Load(step.insert_u + window));
      Store(b.m1 + lane, m);
      Store(b.q1 + lane, q);
    }
    LeaveAvx();
    RunScalar<M, kForward>(step, b, run, x, k);
    return;
  }
  constexpr int own = kForward ? 0 : 1;
  constexpr int other = 1 - own;
  for (; k + 4 <= run.count; k += 4) {
    const size_t lane = run.lane + k;
    const size_t window = run.window + k;
    const __m256d f = Load(step.factor + window);
    const __m256d w_own = Load(b.w[1 + own] + window);
    const __m256d w_other = Load(b.w[1 + other] + window);
    __m256d m_own = Load(b.m[own] + lane);
    __m256d q_own = Load(b.q[own] + lane);
    __m256d m_other = Load(b.m[other] + lane);
    if (step.decay_other) {
      __m256d q_other = Load(b.q[other] + lane);
      Decay4<M>(m_other, q_other, f);
      Store(b.m[other] + lane, m_other);
      Store(b.q[other] + lane, q_other);
    }
    if (step.decay_own) {
      Decay4<M>(m_own, q_own, f);
    }
    Insert4<M>(m_own, q_own, vx, Load(step.weight + window), w_own,
               Load(step.insert_own + window));
    Store(b.m[own] + lane, m_own);
    Store(b.q[own] + lane, q_own);
    const __m256d sr = _mm256_mul_pd(Load(b.sr + lane), Load(step.residual + window));
    const __m256d d_own = _mm256_sub_pd(vx, Mean4<M>(m_own, w_own));
    const __m256d d_other = _mm256_sub_pd(zero, Mean4<M>(m_other, w_other));
    Store(b.sr + lane, _mm256_add_pd(sr, kForward ? _mm256_mul_pd(d_own, d_other)
                                                  : _mm256_mul_pd(d_other, d_own)));
  }
  LeaveAvx();
  RunScalar<M, kForward>(step, b, run, x, k);
}

template <DampedMode M>
SUPERFE_AVX2 void StatsAvx2(const Plan& plan, const View<const double>& b, const Run& run,
                            bool forward, double* stats) {
  const size_t lanes = plan.lanes();
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  size_t k = 0;
  for (; k + 4 <= run.count; k += 4) {
    const size_t lane = run.lane + k;
    const size_t window = run.window + k;
    double* out = stats + plan.StatsLane(run, static_cast<uint32_t>(k));
    if (!run.two_sided) {
      const __m256d w = Load(b.w[0] + window);
      const __m256d m = Load(b.m1 + lane);
      Store(out + kSum * lanes, LinearSum4<M>(m, w));
      Store(out + kMean * lanes, Mean4<M>(m, w));
      if (run.tier >= kTierVar) {
        const __m256d var = Variance4<M>(m, Load(b.q1 + lane), w);
        Store(out + kVar * lanes, var);
        Store(out + kStd * lanes, _mm256_sqrt_pd(var));
      }
      continue;
    }
    const int own = forward ? 0 : 1;
    const __m256d w_own = Load(b.w[1 + own] + window);
    const __m256d m_own = Load(b.m[own] + lane);
    Store(out + kSum * lanes, LinearSum4<M>(m_own, w_own));
    Store(out + kMean * lanes, Mean4<M>(m_own, w_own));
    if (run.tier == kTierVar) {
      const __m256d var = Variance4<M>(m_own, Load(b.q[own] + lane), w_own);
      Store(out + kVar * lanes, var);
      Store(out + kStd * lanes, _mm256_sqrt_pd(var));
    } else if (run.tier == kTierPair) {
      const __m256d w_a = Load(b.w[1] + window);
      const __m256d w_b = Load(b.w[2] + window);
      const __m256d m_a = Load(b.m[0] + lane);
      const __m256d m_b = Load(b.m[1] + lane);
      const __m256d mean_a = Mean4<M>(m_a, w_a);
      const __m256d mean_b = Mean4<M>(m_b, w_b);
      const __m256d var_a = Variance4<M>(m_a, Load(b.q[0] + lane), w_a);
      const __m256d var_b = Variance4<M>(m_b, Load(b.q[1] + lane), w_b);
      const __m256d std_a = _mm256_sqrt_pd(var_a);
      const __m256d std_b = _mm256_sqrt_pd(var_b);
      Store(out + kVar * lanes, forward ? var_a : var_b);
      Store(out + kStd * lanes, forward ? std_a : std_b);
      Store(out + kMag * lanes, _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(mean_a, mean_a),
                                                             _mm256_mul_pd(mean_b, mean_b))));
      Store(out + kRadius * lanes, _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(var_a, var_a),
                                                                _mm256_mul_pd(var_b, var_b))));
      const __m256d w = _mm256_add_pd(w_a, w_b);
      const __m256d cov = _mm256_and_pd(_mm256_cmp_pd(w, zero, _CMP_GT_OQ),
                                        _mm256_div_pd(Load(b.sr + lane), w));
      Store(out + kCov * lanes, cov);
      const __m256d denom = _mm256_mul_pd(std_a, std_b);
      __m256d pcc = _mm256_div_pd(cov, denom);
      pcc = _mm256_blendv_pd(pcc, one, _mm256_cmp_pd(pcc, one, _CMP_GT_OQ));
      const __m256d minus_one = _mm256_set1_pd(-1.0);
      pcc = _mm256_blendv_pd(pcc, minus_one, _mm256_cmp_pd(pcc, minus_one, _CMP_LT_OQ));
      Store(out + kPcc * lanes, _mm256_andnot_pd(_mm256_cmp_pd(denom, zero, _CMP_LE_OQ), pcc));
    }
  }
  LeaveAvx();
  StatsScalar<M>(plan, b, run, forward, stats, k);
}

// QuantizeFixed4 over n values; returns how many it rounded.
SUPERFE_AVX2 size_t QuantizeFixedAvx2(const double* in, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    Store(out + i, QuantizeFixed4(Load(in + i)));
  }
  return i;
}

#undef SUPERFE_AVX2

bool UseAvx2() { return ActiveSimdLevel() == SimdLevel::kAvx2; }

#endif  // SUPERFE_X86_SIMD

template <DampedMode M, bool kForward>
void UpdateMode(const Plan& plan, double* block, double t, const double* inputs) {
  const View<double> b(plan, block);
  const size_t windows = plan.windows();
  Scratch<5 * 64> scratch(5 * windows);
  Step step(scratch.data(), windows);
  StepFactors<M>(plan, *b.clock, t, step);
  const bool one_sided = plan.lanes1 > 0;
  const bool two_sided = plan.lanes2 > 0;
#ifdef SUPERFE_X86_SIMD
  if (UseAvx2()) {
    WeightsAvx2<M>(step, b, kForward, one_sided, two_sided, windows);
    for (const Run& run : plan.runs) {
      RunAvx2<M, kForward>(step, b, run, inputs[run.input]);
    }
  } else
#endif
  {
    WeightsScalar<M>(step, b, kForward, one_sided, two_sided, 0, windows);
    for (const Run& run : plan.runs) {
      RunScalar<M, kForward>(step, b, run, inputs[run.input], 0);
    }
  }
  if (t > *b.clock) {
    *b.clock = t;  // The clock keeps the latest sample time.
  }
}

template <DampedMode M>
void UpdateSide(const Plan& plan, double* block, double t, bool forward, const double* inputs) {
  if (forward) {
    UpdateMode<M, true>(plan, block, t, inputs);
  } else {
    UpdateMode<M, false>(plan, block, t, inputs);
  }
}

template <DampedMode M>
void StatsMode(const Plan& plan, const double* block, bool forward, double* stats) {
  const View<const double> b(plan, block);
#ifdef SUPERFE_X86_SIMD
  if (UseAvx2()) {
    for (const Run& run : plan.runs) {
      StatsAvx2<M>(plan, b, run, forward, stats);
    }
    return;
  }
#endif
  for (const Run& run : plan.runs) {
    StatsScalar<M>(plan, b, run, forward, stats, 0);
  }
}

}  // namespace

size_t Plan::BlockSize() const {
  return lanes() == 0 ? 0 : 3 * size_t{windows()} + 2 * size_t{lanes1} + 5 * size_t{lanes2} + 1;
}

void InitBlock(const Plan& plan, double* block) {
  const size_t size = plan.BlockSize();
  if (size == 0) {
    return;
  }
  std::fill(block, block + size - 1, 0.0);
  block[size - 1] = kNoSample;
}

void Update(DampedMode mode, const Plan& plan, double* block, double t_seconds, bool forward,
            const double* inputs) {
  switch (mode) {
    case DampedMode::kExactDouble:
      UpdateSide<DampedMode::kExactDouble>(plan, block, t_seconds, forward, inputs);
      break;
    case DampedMode::kNicFixedPoint:
      UpdateSide<DampedMode::kNicFixedPoint>(plan, block, t_seconds, forward, inputs);
      break;
    case DampedMode::kFloat32:
      UpdateSide<DampedMode::kFloat32>(plan, block, t_seconds, forward, inputs);
      break;
  }
}

void Stats(DampedMode mode, const Plan& plan, const double* block, bool forward, double* stats) {
  switch (mode) {
    case DampedMode::kExactDouble:
      StatsMode<DampedMode::kExactDouble>(plan, block, forward, stats);
      break;
    case DampedMode::kNicFixedPoint:
      StatsMode<DampedMode::kNicFixedPoint>(plan, block, forward, stats);
      break;
    case DampedMode::kFloat32:
      StatsMode<DampedMode::kFloat32>(plan, block, forward, stats);
      break;
  }
}

void QuantizeFixedForTest(const double* in, double* out, size_t n) {
  size_t i = 0;
#ifdef SUPERFE_X86_SIMD
  if (UseAvx2()) {
    i = QuantizeFixedAvx2(in, out, n);
  }
#endif
  for (; i < n; ++i) {
    out[i] = damped_internal::QuantizeFixed(in[i]);
  }
}

}  // namespace damped_lanes
}  // namespace superfe
