#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace superfe {
namespace {

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE 802.3).
  const char* data = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

// The reference: one bit at a time, the reflected IEEE polynomial.
uint32_t BytewiseCrc32(const uint8_t* data, size_t length, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < length; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, SlicingMatchesBytewiseReference) {
  Rng rng(9);
  uint8_t buffer[72];
  for (uint8_t& b : buffer) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  // Zero, the group-key seeds of every granularity, the FG index seed, and
  // random seeds.
  std::vector<uint32_t> seeds = {0u, 0xf60f60u};
  for (uint32_t g = 0; g < 4; ++g) {
    seeds.push_back(g * 0x1003fu);
  }
  for (int i = 0; i < 4; ++i) {
    seeds.push_back(static_cast<uint32_t>(rng.NextU64()));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      for (uint32_t seed : seeds) {
        ASSERT_EQ(Crc32(buffer + offset, length, seed),
                  BytewiseCrc32(buffer + offset, length, seed))
            << "offset " << offset << " length " << length << " seed " << seed;
      }
    }
  }
}

TEST(Crc32Test, SeedChangesResult) {
  const char* data = "abc";
  EXPECT_NE(Crc32(data, 3, 0), Crc32(data, 3, 1));
}

TEST(Murmur3Test, Deterministic) {
  const char* data = "hello world";
  EXPECT_EQ(Murmur3(data, 11, 7), Murmur3(data, 11, 7));
  EXPECT_NE(Murmur3(data, 11, 7), Murmur3(data, 11, 8));
}

TEST(Murmur3Test, TailBytesMatter) {
  uint8_t a[5] = {1, 2, 3, 4, 5};
  uint8_t b[5] = {1, 2, 3, 4, 6};
  EXPECT_NE(Murmur3(a, 5), Murmur3(b, 5));
}

TEST(Mix64Test, AvalanchesLowBits) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(Mix64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  std::vector<double> xs(100000);
  for (auto& x : xs) {
    x = rng.Normal();
  }
  EXPECT_NEAR(Mean(xs), 0.0, 0.02);
  EXPECT_NEAR(Variance(xs), 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  std::vector<double> xs(100000);
  for (auto& x : xs) {
    x = rng.Exponential(2.0);
  }
  EXPECT_NEAR(Mean(xs), 0.5, 0.01);
}

TEST(RngTest, LogNormalMean) {
  Rng rng(19);
  const double mu = 1.0;
  const double sigma = 0.5;
  std::vector<double> xs(200000);
  for (auto& x : xs) {
    x = rng.LogNormal(mu, sigma);
  }
  EXPECT_NEAR(Mean(xs), std::exp(mu + sigma * sigma / 2.0), 0.05);
}

TEST(RngTest, ZipfRange) {
  Rng rng(29);
  uint64_t ones = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.Zipf(100, 1.1);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
    if (v == 1) {
      ++ones;
    }
  }
  // Rank 1 should dominate under Zipf.
  EXPECT_GT(ones, 2000u);
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.WeightedIndex(weights) == 1) {
      ++count1;
    }
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.01);
}

TEST(StatsTest, MeanVarianceKnown) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(Variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2.0);
}

TEST(StatsTest, EmptyIsZero) {
  std::vector<double> xs;
  EXPECT_EQ(Mean(xs), 0.0);
  EXPECT_EQ(Variance(xs), 0.0);
}

TEST(StatsTest, SkewnessOfSymmetricIsZero) {
  std::vector<double> xs = {-2.0, -1.0, 0.0, 1.0, 2.0};
  EXPECT_NEAR(Skewness(xs), 0.0, 1e-12);
}

TEST(StatsTest, KurtosisOfConstantIsZero) {
  std::vector<double> xs = {5.0, 5.0, 5.0};
  EXPECT_EQ(Kurtosis(xs), 0.0);
}

TEST(StatsTest, PerfectCorrelation) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, AntiCorrelation) {
  std::vector<double> xs = {1.0, 2.0, 3.0};
  std::vector<double> ys = {3.0, 2.0, 1.0};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(StatsTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid_argument: bad thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(AsciiTableTest, FormatsAligned) {
  AsciiTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "2"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 2     |"), std::string::npos);
}

TEST(AsciiTableTest, NumberFormatting) {
  EXPECT_EQ(AsciiTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::Percent(0.1234, 1), "12.3%");
}

}  // namespace
}  // namespace superfe
