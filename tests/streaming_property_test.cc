// Property-style tests of the streaming algorithms: invariants that must
// hold across randomized inputs (order independence of decayed sums,
// division-free drain exactness, quantization error bounds, histogram
// conservation).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "common/stats.h"
#include "nicsim/exec.h"
#include "policy/compile.h"
#include "policy/parser.h"
#include "streaming/batch.h"
#include "streaming/damped.h"
#include "streaming/damped_lanes.h"
#include "streaming/histogram.h"
#include "streaming/hyperloglog.h"
#include "streaming/moments.h"
#include "streaming/simd.h"
#include "streaming/welford.h"

namespace superfe {
namespace {

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededTest, DampedSumsAreOrderIndependent) {
  // MGPV delivers a group's two directions as interleaved bursts; the
  // late-sample scaling must make the damped state independent of arrival
  // order (same multiset of (value, timestamp) pairs).
  Rng rng(GetParam());
  std::vector<std::pair<double, double>> samples;  // (value, t).
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    t += rng.UniformDouble(0.0001, 0.01);
    samples.emplace_back(rng.UniformDouble(64, 1500), t);
  }

  DampedStats in_order(1.0);
  for (const auto& [x, ts] : samples) {
    in_order.Add(x, ts);
  }

  // Burst-shuffled: odd-index samples delayed to the end (two interleaved
  // streams arriving as two bursts).
  DampedStats shuffled(1.0);
  for (size_t i = 0; i < samples.size(); i += 2) {
    shuffled.Add(samples[i].first, samples[i].second);
  }
  for (size_t i = 1; i < samples.size(); i += 2) {
    shuffled.Add(samples[i].first, samples[i].second);
  }

  EXPECT_NEAR(shuffled.weight(), in_order.weight(), in_order.weight() * 1e-9);
  EXPECT_NEAR(shuffled.mean(), in_order.mean(), std::fabs(in_order.mean()) * 1e-9);
  EXPECT_NEAR(shuffled.variance(), in_order.variance(),
              std::max(in_order.variance() * 1e-6, 1e-9));
}

TEST_P(SeededTest, NicWelfordTracksExactWithinUnits) {
  // The residue-drain division elimination must keep the integer mean
  // within a few units of the exact recurrence at all times.
  Rng rng(GetParam() ^ 0x11);
  NicWelfordStats nic;
  WelfordStats exact;
  for (int i = 0; i < 30000; ++i) {
    const int64_t x = 64 + static_cast<int64_t>(rng.UniformU64(1450));
    nic.Add(x);
    exact.Add(static_cast<double>(x));
    if (i > 100 && i % 1000 == 0) {
      EXPECT_NEAR(nic.mean(), exact.mean(), 3.0) << "at sample " << i;
    }
  }
  EXPECT_LT(RelativeError(nic.variance(), exact.variance()), 0.05);
}

// The §6.2 drain as the NFP runs it: power-of-two quotient steps found with
// comparisons and shifts only. The host's one-division drain must leave the
// same quotient in `target` and the same residue in `acc`.
template <typename T>
int FloorLog2(T v) {
  int log = -1;
  for (; v > 0; v >>= 1) {
    ++log;
  }
  return log;
}

template <typename T>
void PowerOfTwoDrain(T& acc, int64_t den, T& target) {
  while (acc >= den) {
    T q = T{1} << (FloorLog2(acc) - FloorLog2(T{den}));
    if (q * den > acc) {
      q >>= 1;
    }
    target += q;
    acc -= q * den;
  }
  while (-acc >= den) {
    T q = T{1} << (FloorLog2(-acc) - FloorLog2(T{den}));
    if (q * den > -acc) {
      q >>= 1;
    }
    target -= q;
    acc += q * den;
  }
}

TEST_P(SeededTest, OneDivisionDrainMatchesPowerOfTwoDrain) {
  using Int128 = NicWelfordStats::Int128;
  Rng rng(GetParam() ^ 0xd7);
  for (int i = 0; i < 4000; ++i) {
    const int64_t den = 1 + static_cast<int64_t>(rng.NextU64() >> (24 + rng.UniformU64(40)));
    const int64_t sign = rng.Bernoulli(0.5) ? 1 : -1;
    const int64_t acc = sign * static_cast<int64_t>(rng.NextU64() >> (1 + rng.UniformU64(63)));
    const int64_t target = rng.UniformInt(-1000000, 1000000);

    int64_t acc_oracle = acc, target_oracle = target;
    PowerOfTwoDrain(acc_oracle, den, target_oracle);
    int64_t acc_host = acc, target_host = target;
    welford_internal::DrainResidue(acc_host, den, target_host);
    ASSERT_EQ(acc_host, acc_oracle) << acc << " / " << den;
    ASSERT_EQ(target_host, target_oracle) << acc << " / " << den;

    // The 128-bit overload, on residues inside and beyond int64.
    const Int128 wide = Int128{acc} << rng.UniformU64(37);
    Int128 wide_oracle = wide, wide_target_oracle = target;
    PowerOfTwoDrain(wide_oracle, den, wide_target_oracle);
    Int128 wide_host = wide, wide_target_host = target;
    welford_internal::DrainResidue(wide_host, den, wide_target_host);
    ASSERT_TRUE(wide_host == wide_oracle) << acc << " / " << den;
    ASSERT_TRUE(wide_target_host == wide_target_oracle) << acc << " / " << den;
  }
}

TEST_P(SeededTest, FixedPointDampedWithinFourPercent) {
  Rng rng(GetParam() ^ 0x22);
  const double lambda = std::exp(rng.UniformDouble(std::log(0.01), std::log(5.0)));
  DampedStats exact(lambda, DampedMode::kExactDouble);
  DampedStats fixed(lambda, DampedMode::kNicFixedPoint);
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.UniformDouble(64, 1500);
    t += rng.UniformDouble(0.0001, 0.02);
    exact.Add(x, t);
    fixed.Add(x, t);
  }
  EXPECT_LT(RelativeError(fixed.mean(), exact.mean()), 0.04) << "lambda " << lambda;
  EXPECT_LT(RelativeError(fixed.weight(), exact.weight()), 0.04) << "lambda " << lambda;
  EXPECT_LT(RelativeError(std::sqrt(fixed.variance()), std::sqrt(exact.variance()),
                          /*eps=*/1.0),
            0.06)
      << "lambda " << lambda;
}

TEST_P(SeededTest, HistogramConservesMass) {
  Rng rng(GetParam() ^ 0x33);
  FixedHistogram hist(rng.UniformDouble(1, 100), 1 + static_cast<int>(rng.UniformU64(64)));
  const int n = 1000 + static_cast<int>(rng.UniformU64(5000));
  for (int i = 0; i < n; ++i) {
    hist.Add(rng.UniformDouble(-100, 10000));
  }
  uint64_t total = 0;
  for (int b = 0; b < hist.bins(); ++b) {
    total += hist.count(b);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(n));
  EXPECT_EQ(hist.total(), static_cast<uint64_t>(n));
}

TEST_P(SeededTest, HllInsertOrderIrrelevant) {
  Rng rng(GetParam() ^ 0x66);
  std::vector<uint64_t> values(1000);
  for (auto& v : values) {
    v = rng.NextU64();
  }
  HyperLogLog forward(8);
  for (uint64_t v : values) {
    forward.AddU64(v);
  }
  HyperLogLog reverse(8);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    reverse.AddU64(*it);
  }
  EXPECT_DOUBLE_EQ(forward.Estimate(), reverse.Estimate());
}

TEST_P(SeededTest, MomentsShiftInvarianceOfVariance) {
  Rng rng(GetParam() ^ 0x77);
  StreamingMoments base;
  StreamingMoments shifted;
  const double shift = 1e6;
  std::vector<double> xs(2000);
  for (auto& x : xs) {
    x = rng.UniformDouble(0, 100);
  }
  for (double x : xs) {
    base.Add(x);
    shifted.Add(x + shift);
  }
  EXPECT_NEAR(shifted.variance(), base.variance(), base.variance() * 1e-6);
  EXPECT_NEAR(shifted.skewness(), base.skewness(), 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// ---------------------------------------------------------------------------
// Bulk updates: any split of a stream gives the scalar fold's bits. The
// integer and fixed-point kernels are exact at any split; the double
// families fold value by value in arrival order.

TEST_P(SeededTest, NicWelfordBatchSplitsAreBitExact) {
  Rng rng(GetParam() ^ 0xb1);
  std::vector<double> xs(2000);
  for (auto& x : xs) {
    x = rng.UniformDouble(64, 1514);  // llround in both paths.
  }
  NicWelfordStats scalar;
  for (double x : xs) {
    scalar.Add(std::llround(x));
  }
  // A NIC-arithmetic Welford reducer rounds each value and folds it in
  // order: two runs split at a random value give the standalone state.
  const size_t split = rng.UniformU64(xs.size() + 1);
  Reducer batch(ReduceSpec{ReduceFn::kMean}, ExecOptions{}, /*directional=*/false);
  batch.UpdateBatch(xs.data(), split);
  batch.UpdateBatch(xs.data() + split, xs.size() - split);
  std::vector<double> out;
  batch.EmitAs(ReduceSpec{ReduceFn::kMean}, out);
  batch.EmitAs(ReduceSpec{ReduceFn::kVar}, out);
  EXPECT_EQ(std::bit_cast<uint64_t>(out[0]), std::bit_cast<uint64_t>(scalar.mean()));
  EXPECT_EQ(std::bit_cast<uint64_t>(out[1]), std::bit_cast<uint64_t>(scalar.variance()));
}

TEST_P(SeededTest, FixedPointDampedBatchIsBitExact) {
  // A damped window driven by UpdateGroupBatch over two runs split at a
  // random cell equals standalone DampedStats on their own clocks.
  auto policy = ParsePolicy("damped", R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum{decay=1}])
  .reduce(size, [f_mean{decay=1}, f_var{decay=1}])
  .collect(flow)
)");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  auto compiled = Compile(*policy);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto plan = ExecPlan::FromProgram(compiled->nic_program);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->per_granularity[0].lanes.windows(), 1u);

  Rng rng(GetParam() ^ 0xb2);
  std::vector<MgpvCell> cells(1500);
  uint64_t t_ns = 1000000000;
  DampedStats weight(1.0, DampedMode::kNicFixedPoint);
  DampedStats size(1.0, DampedMode::kNicFixedPoint);
  for (auto& cell : cells) {
    t_ns += 100000 + rng.UniformU64(20000000);
    cell.full_timestamp_ns = t_ns;
    cell.size = static_cast<uint16_t>(64 + rng.UniformU64(1437));
    cell.fg_key = InitiatorKey::Pack({0x0a000001, 0xac100001, 1000, 80, kProtoTcp});
    const double t_seconds = static_cast<double>(t_ns) * 1e-9;
    weight.Add(1.0, t_seconds);
    size.Add(cell.size, t_seconds);
  }
  const size_t split = rng.UniformU64(cells.size() + 1);
  GroupState group = GroupState::Make(*plan, 0, ExecOptions{});
  for (const auto& [begin, end] : {std::pair<size_t, size_t>{0, split}, {split, cells.size()}}) {
    if (begin == end) {
      continue;
    }
    MgpvReport report;
    report.cells.assign(cells.begin() + begin, cells.begin() + end);
    PacketBatchSoA soa;
    soa.Assemble(&report, 1);
    soa.SortByPrefix(InitiatorKey::PrefixBytes(Granularity::kFlow));
    UpdateGroupBatch(*plan, 0, group, soa, 0, soa.rows());
  }
  std::vector<double> out;
  EmitGroupFeatures(*plan, 0, group, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(std::bit_cast<uint64_t>(out[0]), std::bit_cast<uint64_t>(weight.linear_sum()));
  EXPECT_EQ(std::bit_cast<uint64_t>(out[1]), std::bit_cast<uint64_t>(size.mean()));
  EXPECT_EQ(std::bit_cast<uint64_t>(out[2]), std::bit_cast<uint64_t>(size.variance()));
}

// The kNicFixedPoint rounding as libm computes it: what QuantizeFixed must
// equal bit for bit.
double QuantizeFixedLibm(double v) {
  if (v == 0.0) {
    return 0.0;
  }
  const double abs_v = std::fabs(v);
  if (abs_v < 16777216.0) {
    return std::nearbyint(v * 65536.0) / 65536.0;
  }
  const int exponent = std::ilogb(abs_v) - 23;
  const double scale = std::ldexp(1.0, exponent);
  return std::nearbyint(v / scale) * scale;
}

void ExpectQuantizesLikeLibm(double v) {
  EXPECT_EQ(std::bit_cast<uint64_t>(damped_internal::QuantizeFixed(v)),
            std::bit_cast<uint64_t>(QuantizeFixedLibm(v)))
      << std::hexfloat << v << ": " << damped_internal::QuantizeFixed(v) << " vs "
      << QuantizeFixedLibm(v);
}

TEST_P(SeededTest, FixedPointRoundingMatchesLibm) {
  Rng rng(GetParam() ^ 0xc1);
  for (int i = 0; i < 200000; ++i) {
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    // Magnitudes from 2^-20 to 2^130: the 16.16 grid, then 24 significant
    // bits below and beyond FLT_MAX.
    const double magnitude = std::exp2(rng.UniformDouble(-20.0, 130.0));
    ExpectQuantizesLikeLibm(sign * magnitude);
    // An exact tie of the 16.16 grid, and of 24 significant bits above 2^24.
    const double k = static_cast<double>(rng.UniformU64(uint64_t{1} << 40));
    ExpectQuantizesLikeLibm(sign * (k + 0.5) / 65536.0);
    const double mantissa = static_cast<double>((uint64_t{1} << 23) + rng.UniformU64(1 << 23));
    const int exponent = static_cast<int>(rng.UniformU64(110));
    ExpectQuantizesLikeLibm(sign * std::ldexp(mantissa + 0.5, exponent));
    // The integer rounding the decay factors use, ties included.
    const double r = static_cast<double>(rng.UniformU64(uint64_t{1} << 51)) +
                     (rng.Bernoulli(0.5) ? 0.5 : rng.UniformDouble(0.0, 1.0));
    ASSERT_EQ(damped_internal::RoundToInteger(r), std::nearbyint(r)) << std::hexfloat << r;
  }
}

TEST(DampedRoundingTest, EdgeCasesMatchLibm) {
  const double two24 = 16777216.0;
  const double flt_max = FLT_MAX;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> edges = {
      0.0, std::numeric_limits<double>::denorm_min(), 1e-310, DBL_MIN, 1e-300,
      0.5 / 65536.0, 1.5 / 65536.0, 2.5 / 65536.0, 0.49999 / 65536.0, 1.0 / 65536.0,
      0.5, 1.5, 2.5,
      std::nextafter(two24, 0.0), two24, std::nextafter(two24, inf),
      two24 - 0.5 / 65536.0, two24 + 1.0, two24 + 2.0, two24 + 3.0, 2.0 * two24 + 1.0,
      std::nextafter(flt_max, 0.0), flt_max, std::nextafter(flt_max, inf),
      flt_max + std::ldexp(1.0, 103), flt_max + std::ldexp(1.0, 104), 1e300, DBL_MAX, inf};
  for (double v : edges) {
    ExpectQuantizesLikeLibm(v);
    ExpectQuantizesLikeLibm(-v);
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(damped_internal::QuantizeFixed(-0.0)),
            std::bit_cast<uint64_t>(0.0));
  EXPECT_TRUE(std::isnan(damped_internal::QuantizeFixed(std::nan(""))));
}

TEST_P(SeededTest, HllBatchSplitsAreBitExact) {
  Rng rng(GetParam() ^ 0xb3);
  std::vector<uint64_t> vs(3000);
  for (auto& v : vs) {
    v = rng.NextU64();
  }
  HyperLogLog scalar(10);
  for (uint64_t v : vs) {
    scalar.AddU64(v);
  }
  const size_t split = rng.UniformU64(vs.size() + 1);
  HyperLogLog batch(10);
  batch.AddU64Batch(vs.data(), split);
  batch.AddU64Batch(vs.data() + split, vs.size() - split);
  EXPECT_EQ(batch.Estimate(), scalar.Estimate());
}

TEST_P(SeededTest, HistogramBatchSplitsAreBitExact) {
  Rng rng(GetParam() ^ 0xb4);
  std::vector<double> xs(2500);
  for (auto& x : xs) {
    x = rng.UniformDouble(-100, 10000);
  }
  FixedHistogram scalar(25.0, 32);
  for (double x : xs) {
    scalar.Add(x);
  }
  const size_t split = rng.UniformU64(xs.size() + 1);
  FixedHistogram batch(25.0, 32);
  batch.AddBatch(xs.data(), split);
  batch.AddBatch(xs.data() + split, xs.size() - split);
  EXPECT_EQ(batch.total(), scalar.total());
  for (int b = 0; b < scalar.bins(); ++b) {
    EXPECT_EQ(batch.count(b), scalar.count(b)) << "bin " << b;
  }
}

TEST(BatchKernelTest, HistogramClampsQuotientsBeyondIntToTopBin) {
  // A width far below the values (a hostile policy's ft_hist{1e-9, 10})
  // gives quotients beyond int: every path must bin them into the top
  // bucket, not convert them.
  const std::vector<double> xs = {1500.0, 3.0, 1e300, 0.0, -5.0, 1e-12, 64.0};
  FixedHistogram scalar(1e-9, 10);
  for (double x : xs) {
    scalar.Add(x);
  }
  EXPECT_EQ(scalar.count(9), 4u);  // 1500, 3, 1e300, 64.
  EXPECT_EQ(scalar.count(0), 3u);  // 0, -5, and 1e-12 (quotient 0.001).
  const SimdLevel detected = ActiveSimdLevel();
  for (SimdLevel level : {detected, SimdLevel::kScalar}) {
    ForceSimdLevelForTest(level);
    FixedHistogram batch(1e-9, 10);
    batch.AddBatch(xs.data(), xs.size());
    for (int b = 0; b < scalar.bins(); ++b) {
      EXPECT_EQ(batch.count(b), scalar.count(b)) << SimdLevelName(level) << " bin " << b;
    }
  }
  ForceSimdLevelForTest(detected);
}

// Feeds `xs` to three Reducers of the family of `members[0]` — one
// UpdateBatch call, UpdateBatch over runs cut at random points (empty runs
// included), and one Update per value — and checks that every member
// emits the same bits from all three.
void ExpectReducerSplitsBitExact(const std::vector<ReduceSpec>& members,
                                 const ExecOptions& options, const std::vector<double>& xs,
                                 uint64_t seed) {
  Rng rng(seed);
  Reducer whole(members[0], options, /*directional=*/false);
  Reducer split(members[0], options, /*directional=*/false);
  Reducer each(members[0], options, /*directional=*/false);
  whole.UpdateBatch(xs.data(), xs.size());
  for (size_t begin = 0; begin < xs.size();) {
    const size_t end = std::min(xs.size(), begin + rng.UniformU64(300));
    split.UpdateBatch(xs.data() + begin, end - begin);
    begin = end;
  }
  for (double x : xs) {
    each.Update(x);
  }
  const auto bits = [&](const Reducer& reducer) {
    std::vector<double> out;
    for (const ReduceSpec& spec : members) {
      reducer.EmitAs(spec, out);
    }
    std::vector<uint64_t> raw;
    for (double v : out) {
      raw.push_back(std::bit_cast<uint64_t>(v));
    }
    return raw;
  };
  const std::vector<uint64_t> expected = bits(whole);
  EXPECT_EQ(bits(split), expected) << members[0].ToString() << " random splits";
  EXPECT_EQ(bits(each), expected) << members[0].ToString() << " one Update per value";
}

const ExecOptions kExactOptions = [] {
  ExecOptions o;
  o.nic_arithmetic = false;
  return o;
}();

// Packet sizes: integral, 40..1500 bytes.
std::vector<double> Sizes(Rng& rng, size_t n) {
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = static_cast<double>(40 + rng.UniformU64(1461));
  }
  return xs;
}

TEST_P(SeededTest, ReducerSumSplitsAreBitExact) {
  // The speed map's magnitudes: size over inter-packet gaps from 1 ns to
  // about a second, non-integral bytes per second.
  Rng rng(GetParam() ^ 0xd1);
  std::vector<double> speeds(3000);
  for (auto& v : speeds) {
    const double ipt_ns = std::exp2(rng.UniformDouble(0.0, 30.0));
    v = rng.UniformDouble(40, 1500) / (ipt_ns * 1e-9);
  }
  ExpectReducerSplitsBitExact({{ReduceFn::kSum}}, kExactOptions, speeds, GetParam());
  ExpectReducerSplitsBitExact({{ReduceFn::kSum}}, ExecOptions{}, Sizes(rng, 3000), GetParam());
}

TEST_P(SeededTest, ReducerMinMaxSplitsAreBitExact) {
  Rng rng(GetParam() ^ 0xd2);
  std::vector<double> xs(2000);
  for (auto& x : xs) {
    x = rng.UniformDouble(-1e6, 1e6);
  }
  ExpectReducerSplitsBitExact({{ReduceFn::kMin}, {ReduceFn::kMax}}, kExactOptions, xs,
                              GetParam());
}

// The Welford and moments families' tests are named for a ULP bound; the
// bound is zero: every split gives the same bits.
TEST_P(SeededTest, WelfordBatchSplitsWithinUlpBound) {
  // Exact double Welford and the NIC's integer one.
  Rng rng(GetParam() ^ 0xd3);
  std::vector<double> xs(4000);
  for (auto& x : xs) {
    x = rng.UniformDouble(40, 1500);
  }
  const std::vector<ReduceSpec> members = {{ReduceFn::kMean}, {ReduceFn::kVar}, {ReduceFn::kStd}};
  ExpectReducerSplitsBitExact(members, kExactOptions, xs, GetParam());
  ExpectReducerSplitsBitExact(members, ExecOptions{}, xs, GetParam());
}

TEST_P(SeededTest, MomentsBatchSplitsWithinUlpBound) {
  Rng rng(GetParam() ^ 0xd4);
  std::vector<double> skewed(3000);
  for (auto& x : skewed) {
    x = rng.LogNormal(4.0, 1.0);
  }
  const std::vector<ReduceSpec> members = {{ReduceFn::kSkew}, {ReduceFn::kKur}};
  ExpectReducerSplitsBitExact(members, kExactOptions, skewed, GetParam());
  // A symmetric size mix (as many 64s as 1514s around 789s): the exact
  // skewness is 0, so what is emitted is m3's rounding noise, and it must
  // not depend on where the stream is split.
  std::vector<double> symmetric;
  for (int i = 0; i < 1000; ++i) {
    symmetric.insert(symmetric.end(), {64.0, 789.0, 1514.0});
  }
  for (size_t i = symmetric.size() - 1; i > 0; --i) {
    std::swap(symmetric[i], symmetric[rng.UniformU64(i + 1)]);
  }
  ExpectReducerSplitsBitExact(members, kExactOptions, symmetric, GetParam());
}

TEST_P(SeededTest, ReducerCardSplitsAreBitExact) {
  // FG-key hashes: 32-bit values as doubles.
  Rng rng(GetParam() ^ 0xd5);
  std::vector<double> xs(3000);
  for (auto& x : xs) {
    x = static_cast<double>(rng.UniformU64(1u << 12) * 0x9e3779b1u % (uint64_t{1} << 32));
  }
  ExpectReducerSplitsBitExact({{ReduceFn::kCard}}, ExecOptions{}, xs, GetParam());
}

TEST_P(SeededTest, ReducerArraySplitsAreBitExact) {
  Rng rng(GetParam() ^ 0xd6);
  ReduceSpec spec{ReduceFn::kArray};
  spec.array_limit = 700;
  ExpectReducerSplitsBitExact({spec}, ExecOptions{}, Sizes(rng, 1000), GetParam());
}

TEST_P(SeededTest, ReducerHistSplitsAreBitExact) {
  Rng rng(GetParam() ^ 0xd7);
  ExpectReducerSplitsBitExact(
      {{ReduceFn::kHist, 100, 16}, {ReduceFn::kPdf, 100, 16}, {ReduceFn::kCdf, 100, 16}},
      ExecOptions{}, Sizes(rng, 2500), GetParam());
}

TEST_P(SeededTest, ReducerPercentSplitsAreBitExact) {
  Rng rng(GetParam() ^ 0xd8);
  std::vector<double> xs(2500);
  for (auto& x : xs) {
    x = std::exp2(rng.UniformDouble(-2.0, 34.0));
  }
  ExpectReducerSplitsBitExact({{ReduceFn::kPercent, 0.5}, {ReduceFn::kPercent, 0.9}},
                              ExecOptions{}, xs, GetParam());
}

TEST(BatchKernelTest, Log2BucketMatchesScalarAtBoundaries) {
  // The bit-trick bucketer must agree with the mathematical definition,
  // including exactly at power-of-two boundaries where std::log2 rounding
  // misbuckets.
  std::vector<double> vs = {0.0, -3.0, 0.5, 0.999999, 1.0, 1.5, 2.0,
                            3.0, 4.0, 1023.0, 1024.0, 1025.0,
                            2147483648.0, 1e300};
  std::vector<int32_t> batch(vs.size());
  batchkern::Log2BucketBatch(vs.data(), vs.size(), batch.data());
  for (size_t i = 0; i < vs.size(); ++i) {
    const double v = vs[i];
    int expected = 0;
    if (v >= 1.0) {
      expected = std::min(31, static_cast<int>(std::floor(std::log2(v))) + 1);
    }
    EXPECT_EQ(batchkern::Log2Bucket(v), expected) << "v=" << v;
    EXPECT_EQ(batch[i], expected) << "v=" << v;
  }
}

TEST_P(SeededTest, SimdFallbackIsBitIdentical) {
  // The scalar fallback and the detected SIMD level must produce
  // bit-identical results for every primitive. On a non-SIMD build/host both
  // passes run scalar and the test is vacuous but still true.
  Rng rng(GetParam() ^ 0xb7);
  std::vector<double> xs(1021);  // Odd size exercises the tail handling.
  std::vector<uint64_t> us(1021);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.UniformDouble(-10, 5000);
    us[i] = rng.NextU64();
  }
  struct Outputs {
    double lo, hi;
    std::vector<int32_t> buckets;
    std::vector<uint32_t> hashes;
  };
  const auto run = [&](SimdLevel level) {
    ForceSimdLevelForTest(level);
    Outputs o;
    o.lo = xs[0];
    o.hi = xs[0];
    batchkern::MinMax(xs.data(), xs.size(), &o.lo, &o.hi);
    o.buckets.resize(xs.size());
    batchkern::Log2BucketBatch(xs.data(), xs.size(), o.buckets.data());
    o.hashes.resize(us.size());
    batchkern::HashU64Batch(us.data(), us.size(), o.hashes.data());
    return o;
  };
  const SimdLevel detected = ActiveSimdLevel();
  const Outputs simd = run(detected);
  const Outputs scalar = run(SimdLevel::kScalar);
  ForceSimdLevelForTest(detected);  // Restore for other tests.
  EXPECT_EQ(simd.lo, scalar.lo);
  EXPECT_EQ(simd.hi, scalar.hi);
  EXPECT_EQ(simd.buckets, scalar.buckets);
  EXPECT_EQ(simd.hashes, scalar.hashes);
}

// The FixedPointRoundingMatchesLibm inputs for `seed`, plus the edge cases.
std::vector<double> RoundingInputs(uint64_t seed) {
  Rng rng(seed ^ 0xc1);
  std::vector<double> vs;
  for (int i = 0; i < 200000; ++i) {
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    vs.push_back(sign * std::exp2(rng.UniformDouble(-20.0, 130.0)));
    const double k = static_cast<double>(rng.UniformU64(uint64_t{1} << 40));
    vs.push_back(sign * (k + 0.5) / 65536.0);
    const double mantissa = static_cast<double>((uint64_t{1} << 23) + rng.UniformU64(1 << 23));
    vs.push_back(sign * std::ldexp(mantissa + 0.5, static_cast<int>(rng.UniformU64(110))));
    rng.UniformU64(uint64_t{1} << 51);  // The RoundToInteger draws, kept in step.
    if (!rng.Bernoulli(0.5)) {
      rng.UniformDouble(0.0, 1.0);
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {0.0, std::numeric_limits<double>::denorm_min(), 1e-310, DBL_MIN,
                   0.5 / 65536.0, 1.5 / 65536.0, std::nextafter(16777216.0, 0.0), 16777216.0,
                   std::nextafter(16777216.0, inf), 16777216.0 + 3.0, double{FLT_MAX}, DBL_MAX,
                   inf, std::nan("")}) {
    vs.push_back(v);
    vs.push_back(-v);
  }
  return vs;
}

TEST_P(SeededTest, DampedLaneKernelsMatchAcrossSimdLevels) {
  // Every dispatch level must give the scalar reference's bits: the vector
  // rounding, and the lane block and statistics after each sample, in
  // every mode. One- and two-sided runs over six windows (a vector of four
  // and a tail), every tier; samples with ties, late samples, a gap that
  // decays the weights to 0 and a late backward sample whose weight rounds
  // to 0 there (a masked insert), ±0, subnormals, both sides of 2^24, and a
  // lane fed ±inf and NaN.
  const uint64_t seed = GetParam();
  damped_lanes::Plan plan;
  plan.lambdas = {5.0, 3.0, 1.0, 0.1, 0.01, 0.0};
  plan.runs = {
      {.lane = 0, .window = 0, .count = 6, .input = 0, .tier = damped_lanes::kTierVar},
      {.lane = 6, .window = 1, .count = 3, .input = 1, .tier = damped_lanes::kTierMean},
      {.lane = 0, .window = 0, .count = 6, .input = 0, .two_sided = true,
       .tier = damped_lanes::kTierPair},
      {.lane = 6, .window = 1, .count = 5, .input = 2, .two_sided = true,
       .tier = damped_lanes::kTierPair},
      {.lane = 11, .window = 2, .count = 4, .input = 1, .two_sided = true,
       .tier = damped_lanes::kTierVar},
  };
  plan.lanes1 = 9;
  plan.lanes2 = 15;

  Rng rng(seed ^ 0xd1);
  struct Sample {
    double t;
    bool forward;
    double inputs[3];
  };
  std::vector<Sample> samples;
  double t = 1.0;
  const double specials[] = {0.0, -0.0, 1e-310, -1e-310, 16777215.5, 16777218.0, 3.1e7, -4e9};
  for (int i = 0; i < 400; ++i) {
    Sample s{};
    const double u = rng.UniformDouble(0.0, 1.0);
    if (i == 200) {
      t += 1000.0;  // Every weight decays to 0 in fixed point.
      s.forward = true;
    } else if (i == 201) {
      s.forward = false;  // Side B is empty: its weight rounds to 0.
    } else {
      s.forward = rng.Bernoulli(0.5);
    }
    if (i == 201) {
      s.t = t - 30.0;
    } else if (u < 0.1) {
      s.t = t;  // A tie.
    } else if (u < 0.2) {
      s.t = t - rng.UniformDouble(0.0, 0.5);  // Late.
    } else {
      t += rng.UniformDouble(0.0, 0.2);
      s.t = t;
    }
    s.inputs[0] = rng.UniformDouble(40.0, 1500.0);
    s.inputs[1] = specials[rng.UniformU64(8)];
    s.inputs[2] = i < 300 ? rng.UniformDouble(-1e6, 1e6)
                          : (i % 3 == 0 ? std::numeric_limits<double>::infinity()
                                        : (i % 3 == 1 ? -std::numeric_limits<double>::infinity()
                                                      : std::nan("")));
    samples.push_back(s);
  }

  const std::vector<double> rounding = RoundingInputs(seed);
  struct Outputs {
    std::vector<uint64_t> rounded;
    std::vector<uint64_t> bits;  // Blocks and statistics, every sample, every mode.
  };
  const auto append = [](std::vector<uint64_t>& bits, const double* v, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      bits.push_back(std::bit_cast<uint64_t>(v[i]));
    }
  };
  const auto run = [&](SimdLevel level) {
    ForceSimdLevelForTest(level);
    Outputs o;
    std::vector<double> rounded(rounding.size());
    damped_lanes::QuantizeFixedForTest(rounding.data(), rounded.data(), rounded.size());
    append(o.rounded, rounded.data(), rounded.size());
    for (DampedMode mode :
         {DampedMode::kNicFixedPoint, DampedMode::kExactDouble, DampedMode::kFloat32}) {
      std::vector<double> block(plan.BlockSize());
      damped_lanes::InitBlock(plan, block.data());
      std::vector<double> stats(damped_lanes::kStatCount * plan.lanes());
      for (const Sample& s : samples) {
        damped_lanes::Update(mode, plan, block.data(), s.t, s.forward, s.inputs);
        append(o.bits, block.data(), block.size());
        for (bool forward : {true, false}) {
          std::fill(stats.begin(), stats.end(), 0.0);
          damped_lanes::Stats(mode, plan, block.data(), forward, stats.data());
          append(o.bits, stats.data(), stats.size());
        }
      }
    }
    return o;
  };
  const SimdLevel detected = ActiveSimdLevel();
  const Outputs scalar = run(SimdLevel::kScalar);
  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    const Outputs simd = run(level);
    EXPECT_EQ(simd.rounded, scalar.rounded) << SimdLevelName(ActiveSimdLevel());
    ASSERT_EQ(simd.bits.size(), scalar.bits.size());
    for (size_t i = 0; i < simd.bits.size(); ++i) {
      // IEEE 754 leaves open which payload an operation on two NaNs keeps,
      // and the compiler may swap a product's operands: a NaN need only be
      // a NaN.
      const bool both_nan = std::isnan(std::bit_cast<double>(simd.bits[i])) &&
                            std::isnan(std::bit_cast<double>(scalar.bits[i]));
      ASSERT_TRUE(both_nan || simd.bits[i] == scalar.bits[i])
          << SimdLevelName(ActiveSimdLevel()) << " differs at value " << i << ": "
          << std::hexfloat << std::bit_cast<double>(simd.bits[i]) << " vs "
          << std::bit_cast<double>(scalar.bits[i]);
    }
  }
  ForceSimdLevelForTest(detected);  // Restore for other tests.
  // The scalar rounding is QuantizeFixed itself.
  for (size_t i = 0; i < rounding.size(); ++i) {
    ASSERT_EQ(scalar.rounded[i], std::bit_cast<uint64_t>(damped_internal::QuantizeFixed(rounding[i])));
  }
}

TEST(DampedModeTest, ExactDoubleLsSsEqualsWelfordForm) {
  // The two internal representations are mathematically identical; in
  // double precision they must agree tightly on benign value ranges.
  DampedStats ls_ss(0.5, DampedMode::kExactDouble);
  DampedStats welford(0.5, DampedMode::kNicFixedPoint);  // Welford form (+quantization).
  Rng rng(99);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.UniformDouble(100, 1000);
    t += 0.003;
    ls_ss.Add(x, t);
    welford.Add(x, t);
  }
  EXPECT_LT(RelativeError(welford.mean(), ls_ss.mean()), 0.01);
  EXPECT_LT(RelativeError(welford.variance(), ls_ss.variance()), 0.03);
}

TEST(DampedModeTest, Float32CancellationOnLargeOffsets) {
  // The AfterImage LS/SS representation in float32 loses the variance of a
  // small-spread stream riding on a large mean; the Welford form does not.
  DampedStats exact(0.1, DampedMode::kExactDouble);
  DampedStats f32(0.1, DampedMode::kFloat32);
  DampedStats nic(0.1, DampedMode::kNicFixedPoint);
  Rng rng(7);
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = 3.0e6 + rng.UniformDouble(-20, 20);  // Inter-arrival ns scale.
    t += 0.001;
    exact.Add(x, t);
    f32.Add(x, t);
    nic.Add(x, t);
  }
  const double err_f32 = RelativeError(f32.variance(), exact.variance());
  const double err_nic = RelativeError(nic.variance(), exact.variance());
  EXPECT_GT(err_f32, 0.5);   // Catastrophic cancellation.
  EXPECT_LT(err_nic, 0.05);  // Welford form survives.
}

}  // namespace
}  // namespace superfe
