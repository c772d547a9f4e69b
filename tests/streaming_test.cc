#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "common/stats.h"
#include "streaming/damped.h"
#include "streaming/histogram.h"
#include "streaming/hyperloglog.h"
#include "streaming/moments.h"
#include "streaming/naive.h"
#include "streaming/welford.h"

namespace superfe {
namespace {

std::vector<double> RandomSamples(size_t n, uint64_t seed, double lo = 0.0, double hi = 1500.0) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng.UniformDouble(lo, hi);
  }
  return xs;
}

TEST(WelfordTest, MatchesExactDefinitions) {
  const auto xs = RandomSamples(10000, 1);
  WelfordStats w;
  for (double x : xs) {
    w.Add(x);
  }
  EXPECT_NEAR(w.mean(), Mean(xs), 1e-9);
  EXPECT_NEAR(w.variance(), Variance(xs), 1e-6);
  EXPECT_EQ(w.count(), xs.size());
}

TEST(WelfordTest, SingleSample) {
  WelfordStats w;
  w.Add(5.0);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(WelfordTest, EmptyIsZero) {
  WelfordStats w;
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.variance(), 0.0);
}

TEST(NicWelfordTest, SmallRelativeErrorOnPacketSizes) {
  // Stationary packet-size-like stream: the comparison trick should stay
  // within a few percent of the exact statistics (the Fig 10 claim).
  Rng rng(2);
  std::vector<double> xs(50000);
  for (auto& x : xs) {
    x = rng.Bernoulli(0.8) ? 1514.0 : 64.0;
  }
  NicWelfordStats nic;
  for (double x : xs) {
    nic.Add(static_cast<int64_t>(x));
  }
  EXPECT_LT(RelativeError(nic.mean(), Mean(xs)), 0.04);
  EXPECT_LT(RelativeError(nic.variance(), Variance(xs)), 0.08);
}

TEST(NicWelfordTest, StopsIssuingDivisionsAfterWarmup) {
  NicWelfordStats nic;
  for (int i = 0; i < 1000; ++i) {
    nic.Add(100 + (i % 7));
  }
  // Two divisions per sample during the 64-sample warm-up only.
  EXPECT_LE(nic.divisions_issued(), 2 * 64u);
}

TEST(NicWelfordTest, TracksShiftingMean) {
  NicWelfordStats nic;
  WelfordStats exact;
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const double x = (i < 10000 ? 200.0 : 1200.0) + rng.UniformDouble(-50, 50);
    nic.Add(static_cast<int64_t>(x));
    exact.Add(x);
  }
  EXPECT_LT(RelativeError(nic.mean(), exact.mean()), 0.05);
}

TEST(NicWelfordTest, HugeDeviationsMatchExactWelford) {
  // Rates in bytes/s sit billions of units from their mean, so the squared
  // deviations pass int64; the 128-bit variance state must still track the
  // exact statistics, in the warm-up and after it.
  NicWelfordStats nic;
  WelfordStats exact;
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = i == 0   ? 0
                      : i == 1 ? 7000000000
                      : rng.Bernoulli(0.05)
                          ? static_cast<int64_t>(rng.UniformU64(2000000000000))
                          : static_cast<int64_t>(rng.UniformU64(1000000));
    nic.Add(x);
    exact.Add(static_cast<double>(x));
    if (i == 1 || i == 63 || i == 1999) {
      EXPECT_LT(RelativeError(nic.variance(), exact.variance()), 1e-6) << "at sample " << i;
      EXPECT_LT(RelativeError(nic.mean(), exact.mean()), 1e-6) << "at sample " << i;
    }
  }
}

TEST(DampedTest, NoDecayMatchesPlainStats) {
  // lambda -> 0 means effectively no decay over a short window.
  DampedStats damped(0.0);
  const auto xs = RandomSamples(1000, 4);
  double t = 0.0;
  for (double x : xs) {
    damped.Add(x, t);
    t += 0.001;
  }
  EXPECT_NEAR(damped.mean(), Mean(xs), 1e-6);
  EXPECT_NEAR(damped.variance(), Variance(xs), 1.0);
  EXPECT_NEAR(damped.weight(), 1000.0, 1e-6);
}

TEST(DampedTest, HalvesWeightPerHalfLife) {
  DampedStats damped(1.0);  // 2^(-dt): half-life of 1 s.
  damped.Add(10.0, 0.0);
  damped.DecayTo(1.0);
  EXPECT_NEAR(damped.weight(), 0.5, 1e-9);
  damped.DecayTo(2.0);
  EXPECT_NEAR(damped.weight(), 0.25, 1e-9);
}

TEST(DampedTest, MeanIsDecayInvariantForConstantStream) {
  DampedStats damped(5.0);
  for (int i = 0; i < 100; ++i) {
    damped.Add(42.0, i * 0.05);
  }
  EXPECT_NEAR(damped.mean(), 42.0, 1e-9);
  EXPECT_NEAR(damped.variance(), 0.0, 1e-6);
}

TEST(DampedTest, RecentSamplesDominate) {
  DampedStats damped(5.0);
  for (int i = 0; i < 50; ++i) {
    damped.Add(100.0, i * 0.001);
  }
  for (int i = 0; i < 50; ++i) {
    damped.Add(500.0, 10.0 + i * 0.001);  // 10 s later: old window decayed away.
  }
  EXPECT_NEAR(damped.mean(), 500.0, 1.0);
}

TEST(DampedTest, FixedPointCloseToExact) {
  DampedStats exact(1.0, DampedMode::kExactDouble);
  DampedStats fixed(1.0, DampedMode::kNicFixedPoint);
  Rng rng(5);
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = 64.0 + rng.UniformDouble(0, 1400);
    exact.Add(x, t);
    fixed.Add(x, t);
    t += rng.UniformDouble(0.0001, 0.01);
  }
  EXPECT_LT(RelativeError(fixed.mean(), exact.mean()), 0.04);
  EXPECT_LT(RelativeError(std::sqrt(fixed.variance()), std::sqrt(exact.variance())), 0.06);
}

TEST(DampedTest, Float32WorseThanFixedPointOnVariance) {
  // The original Kitsune's float32 |SS/w - mean^2| cancels catastrophically
  // for large values with small spread; SuperFE's fixed point does not see
  // the same blow-up because its quantization error is additive.
  DampedStats exact(0.1, DampedMode::kExactDouble);
  DampedStats fixed(0.1, DampedMode::kNicFixedPoint);
  DampedStats f32(0.1, DampedMode::kFloat32);
  Rng rng(6);
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = 100000.0 + rng.UniformDouble(-5, 5);  // Large mean, tiny spread.
    exact.Add(x, t);
    fixed.Add(x, t);
    f32.Add(x, t);
    t += 0.001;
  }
  const double err_fixed = RelativeError(fixed.variance(), exact.variance());
  const double err_f32 = RelativeError(f32.variance(), exact.variance());
  EXPECT_GT(err_f32, err_fixed);
}

TEST(Damped2DTest, MagnitudeOfSymmetricStreams) {
  DampedStats2D s(0.0);
  for (int i = 0; i < 100; ++i) {
    s.AddA(3.0, i * 0.001);
    s.AddB(4.0, i * 0.001);
  }
  EXPECT_NEAR(s.Magnitude(), 5.0, 1e-6);  // sqrt(9 + 16).
}

TEST(Damped2DTest, CorrelationBounded) {
  DampedStats2D s(1.0);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.5)) {
      s.AddA(rng.UniformDouble(0, 100), i * 0.001);
    } else {
      s.AddB(rng.UniformDouble(0, 100), i * 0.001);
    }
  }
  EXPECT_GE(s.CorrelationCoefficient(), -1.0);
  EXPECT_LE(s.CorrelationCoefficient(), 1.0);
}

TEST(Damped2DTest, RadiusZeroForConstantStreams) {
  DampedStats2D s(0.0);
  for (int i = 0; i < 50; ++i) {
    s.AddA(10.0, i * 0.001);
    s.AddB(20.0, i * 0.001);
  }
  EXPECT_NEAR(s.Radius(), 0.0, 1e-6);
}

class HllAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HllAccuracyTest, EstimateWithinExpectedError) {
  const uint64_t true_cardinality = GetParam();
  HyperLogLog hll(10);  // 1024 buckets -> ~3.25% standard error.
  Rng rng(8);
  for (uint64_t i = 0; i < true_cardinality; ++i) {
    hll.AddU64(i * 2654435761ull + 17);
  }
  const double estimate = hll.Estimate();
  EXPECT_NEAR(estimate, static_cast<double>(true_cardinality),
              std::max(5.0, 0.12 * static_cast<double>(true_cardinality)));
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllAccuracyTest,
                         ::testing::Values(10, 100, 1000, 10000, 100000));

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(8);
  for (int rep = 0; rep < 100; ++rep) {
    for (uint64_t v = 0; v < 50; ++v) {
      hll.AddU64(v);
    }
  }
  EXPECT_NEAR(hll.Estimate(), 50.0, 10.0);
}

TEST(HllTest, SmallMemoryFootprint) {
  HyperLogLog hll(6);
  EXPECT_EQ(hll.StateBytes(), 64u);  // The §6.1 per-group budget.
}

TEST(FixedHistogramTest, BucketsAndClamping) {
  FixedHistogram hist(10.0, 4);
  hist.Add(5.0);    // Bucket 0.
  hist.Add(15.0);   // Bucket 1.
  hist.Add(999.0);  // Clamped into bucket 3.
  hist.Add(-2.0);   // Clamped into bucket 0.
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(1), 1u);
  EXPECT_EQ(hist.count(3), 1u);
  EXPECT_EQ(hist.total(), 4u);
}

TEST(FixedHistogramTest, PdfSumsToOne) {
  FixedHistogram hist(100.0, 16);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    hist.Add(rng.UniformDouble(0, 1600));
  }
  double sum = 0.0;
  for (double p : hist.Pdf()) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(FixedHistogramTest, CdfMonotoneEndsAtOne) {
  FixedHistogram hist(50.0, 8);
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    hist.Add(rng.UniformDouble(0, 400));
  }
  const auto cdf = hist.Cdf();
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  EXPECT_NEAR(cdf.back(), 1.0, 1e-9);
}

TEST(MomentsTest, MatchExactSkewKurtosis) {
  Rng rng(16);
  std::vector<double> xs(50000);
  for (auto& x : xs) {
    x = rng.Exponential(0.5);  // Skewed distribution.
  }
  StreamingMoments m;
  for (double x : xs) {
    m.Add(x);
  }
  EXPECT_NEAR(m.mean(), Mean(xs), 1e-9);
  EXPECT_NEAR(m.variance(), Variance(xs), 1e-6);
  EXPECT_NEAR(m.skewness(), Skewness(xs), 1e-6);
  EXPECT_NEAR(m.kurtosis(), Kurtosis(xs), 1e-6);
}

TEST(MomentsTest, NormalHasKurtosisThree) {
  Rng rng(17);
  StreamingMoments m;
  for (int i = 0; i < 200000; ++i) {
    m.Add(rng.Normal());
  }
  EXPECT_NEAR(m.kurtosis(), 3.0, 0.1);
  EXPECT_NEAR(m.skewness(), 0.0, 0.05);
}

TEST(NaiveTest, MatchesStreamingResults) {
  const auto xs = RandomSamples(5000, 19);
  NaiveStats naive;
  WelfordStats stream;
  for (double x : xs) {
    naive.Add(x);
    stream.Add(x);
  }
  EXPECT_NEAR(naive.Mean(), stream.mean(), 1e-9);
  EXPECT_NEAR(naive.Variance(), stream.variance(), 1e-6);
  EXPECT_EQ(naive.MemoryBytes(), 5000u * 8u);
}

TEST(NaiveTest, MemoryGrowsLinearlyUnlikeStreaming) {
  NaiveStats naive;
  for (int i = 0; i < 100000; ++i) {
    naive.Add(i);
  }
  EXPECT_EQ(naive.MemoryBytes(), 800000u);
  // The streaming counterpart is O(1): 12 bytes on the NIC.
  EXPECT_EQ(WelfordStats::kNicStateBytes, 12u);
}

TEST(NaiveTest, DistinctCount) {
  NaiveStats naive;
  for (int rep = 0; rep < 3; ++rep) {
    for (int v = 0; v < 7; ++v) {
      naive.Add(v);
    }
  }
  EXPECT_EQ(naive.DistinctCount(), 7u);
}

}  // namespace
}  // namespace superfe
