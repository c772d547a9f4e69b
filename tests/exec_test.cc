#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "nicsim/exec.h"
#include "policy/compile.h"
#include "policy/parser.h"

namespace superfe {
namespace {

const ExecOptions kExact = [] { ExecOptions o; o.nic_arithmetic = false; return o; }();
const ExecOptions kNic = [] { ExecOptions o; o.nic_arithmetic = true; return o; }();

MgpvCell Cell(double size, uint64_t ts_ns, Direction dir = Direction::kForward) {
  MgpvCell cell;
  cell.size = static_cast<uint16_t>(size);
  cell.full_timestamp_ns = ts_ns;
  cell.tstamp = static_cast<uint32_t>(ts_ns);
  cell.direction = dir;
  cell.fg_key = InitiatorKey::Pack({1, 2, 3, 4, kProtoTcp});
  return cell;
}

// Feeds one cell to the group at granularity index 0 as a one-row run, the
// way per-packet collection does.
void Feed(const ExecPlan& plan, GroupState& group, const MgpvCell& cell) {
  MgpvReport report;
  report.cells = {cell};
  PacketBatchSoA batch;
  batch.Assemble(&report, 1);
  UpdateGroupBatch(plan, 0, group, batch, 0, 1);
}

ExecPlan PlanFor(const std::string& source) {
  auto policy = ParsePolicy("t", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  auto compiled = Compile(*policy);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto plan = ExecPlan::FromProgram(compiled->nic_program);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

TEST(ReducerTest, SumMinMax) {
  Reducer sum(ReduceSpec{ReduceFn::kSum}, kExact, false);
  Reducer mn(ReduceSpec{ReduceFn::kMin}, kExact, false);
  Reducer mx(ReduceSpec{ReduceFn::kMax}, kExact, false);
  for (double v : {5.0, 1.0, 9.0, 3.0}) {
    sum.Update(v);
    mn.Update(v);
    mx.Update(v);
  }
  std::vector<double> out;
  sum.EmitAs(ReduceSpec{ReduceFn::kSum}, out);
  mn.EmitAs(ReduceSpec{ReduceFn::kMin}, out);
  mx.EmitAs(ReduceSpec{ReduceFn::kMax}, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 18.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 9.0);
}

TEST(ReducerTest, MeanVarStdExact) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  Reducer mean(ReduceSpec{ReduceFn::kMean}, kExact, false);
  Reducer var(ReduceSpec{ReduceFn::kVar}, kExact, false);
  Reducer std_r(ReduceSpec{ReduceFn::kStd}, kExact, false);
  for (double x : xs) {
    mean.Update(x);
    var.Update(x);
    std_r.Update(x);
  }
  std::vector<double> out;
  mean.EmitAs(ReduceSpec{ReduceFn::kMean}, out);
  var.EmitAs(ReduceSpec{ReduceFn::kVar}, out);
  std_r.EmitAs(ReduceSpec{ReduceFn::kStd}, out);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
}

TEST(ReducerTest, NicArithmeticCloseToExact) {
  Rng rng(1);
  Reducer exact(ReduceSpec{ReduceFn::kMean}, kExact, false);
  Reducer nic(ReduceSpec{ReduceFn::kMean}, kNic, false);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Bernoulli(0.8) ? 1514.0 : 64.0;
    exact.Update(x);
    nic.Update(x);
  }
  std::vector<double> e;
  std::vector<double> n;
  exact.EmitAs(ReduceSpec{ReduceFn::kMean}, e);
  nic.EmitAs(ReduceSpec{ReduceFn::kMean}, n);
  EXPECT_LT(RelativeError(n[0], e[0]), 0.04);
}

TEST(ReducerTest, DampedSumIsWeightForOnes) {
  // A damped owner is a lane of the group's damped block, driven by
  // UpdateGroupBatch.
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum{decay=1}])
  .collect(flow)
)");
  GroupState group = GroupState::Make(plan, 0, kExact);
  Feed(plan, group, Cell(100, 0));
  Feed(plan, group, Cell(100, 1000000000));  // First sample decayed to 0.5.
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], 1.5, 1e-9);
}

TEST(ReducerTest, CardinalityViaHll) {
  const ReduceSpec spec{ReduceFn::kCard};
  Reducer r(spec, kNic, false);
  for (int rep = 0; rep < 10; ++rep) {
    for (int v = 0; v < 40; ++v) {
      r.Update(v);
    }
  }
  std::vector<double> out;
  r.EmitAs(spec, out);
  EXPECT_NEAR(out[0], 40.0, 12.0);
}

TEST(ReducerTest, ArrayPadsToLimit) {
  ReduceSpec spec{ReduceFn::kArray};
  spec.array_limit = 5;
  Reducer r(spec, kNic, false);
  r.Update(1.0);
  r.Update(-1.0);
  std::vector<double> out;
  r.EmitAs(spec, out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], -1.0);
  EXPECT_EQ(out[2], 0.0);
}

TEST(ReducerTest, ArrayTruncatesAtLimit) {
  ReduceSpec spec{ReduceFn::kArray};
  spec.array_limit = 3;
  Reducer r(spec, kNic, false);
  for (int i = 0; i < 10; ++i) {
    r.Update(i);
  }
  std::vector<double> out;
  r.EmitAs(spec, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], 2.0);
}

TEST(ReducerTest, HistogramCounts) {
  ReduceSpec spec{ReduceFn::kHist};
  spec.param0 = 10.0;
  spec.param1 = 4.0;
  Reducer r(spec, kNic, false);
  r.Update(5.0);
  r.Update(15.0);
  r.Update(15.0);
  std::vector<double> out;
  r.EmitAs(spec, out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 1.0);
  EXPECT_EQ(out[1], 2.0);
}

TEST(ReducerTest, PdfCdfNormalized) {
  ReduceSpec pdf_spec{ReduceFn::kPdf};
  pdf_spec.param0 = 10.0;
  pdf_spec.param1 = 4.0;
  ReduceSpec cdf_spec = pdf_spec;
  cdf_spec.fn = ReduceFn::kCdf;
  Reducer pdf(pdf_spec, kNic, false);
  Reducer cdf(cdf_spec, kNic, false);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble(0, 40);
    pdf.Update(v);
    cdf.Update(v);
  }
  std::vector<double> p;
  std::vector<double> c;
  pdf.EmitAs(pdf_spec, p);
  cdf.EmitAs(cdf_spec, c);
  double sum = 0.0;
  for (double v : p) {
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(c.back(), 1.0, 1e-9);
}

TEST(ReducerTest, PercentileLogScale) {
  ReduceSpec spec{ReduceFn::kPercent};
  spec.param0 = 0.5;
  Reducer r(spec, kNic, false);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    r.Update(rng.UniformDouble(0, 1000));
  }
  std::vector<double> out;
  r.EmitAs(spec, out);
  // Log-scale estimate of the median of U(0,1000): within its bucket
  // (256-512 covers the true 500).
  EXPECT_GT(out[0], 200.0);
  EXPECT_LT(out[0], 800.0);
}

TEST(ReducerTest, BidirectionalSplitsByDirection) {
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(flow)
  .reduce(size, [f_mag])
  .collect(flow)
)");
  GroupState group = GroupState::Make(plan, 0, kExact);
  for (uint64_t i = 0; i < 100; ++i) {
    Feed(plan, group, Cell(3.0, i * 1000000, Direction::kForward));
    Feed(plan, group, Cell(4.0, i * 1000000, Direction::kBackward));
  }
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0], 5.0, 1e-6);
}

TEST(SynthTest, NormScalesToUnitMax) {
  auto out = ApplySynth(SynthStep{SynthFn::kNorm, 0}, {2.0, -4.0, 1.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.5);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
}

TEST(SynthTest, NormOfZerosIsZeros) {
  auto out = ApplySynth(SynthStep{SynthFn::kNorm, 0}, {0.0, 0.0});
  EXPECT_EQ(out[0], 0.0);
}

TEST(SynthTest, SampleResamplesLinearly) {
  auto out = ApplySynth(SynthStep{SynthFn::kSample, 3}, {0.0, 10.0, 20.0, 30.0, 40.0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 20.0);
  EXPECT_DOUBLE_EQ(out[2], 40.0);
}

TEST(SynthTest, SampleOfEmptyIsZeros) {
  auto out = ApplySynth(SynthStep{SynthFn::kSample, 4}, {});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0.0);
}

TEST(SynthTest, MarkerEmitsCumulativeAtSignChanges) {
  // +100 +200 -50 -50 +10 => sign changes after 300 and after 200; final 210.
  auto out = ApplySynth(SynthStep{SynthFn::kMarker, 0}, {100, 200, -50, -50, 10});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 300.0);
  EXPECT_DOUBLE_EQ(out[1], 200.0);
  EXPECT_DOUBLE_EQ(out[2], 210.0);
}

TEST(ExecPlanTest, ResolvesFieldsAndGranularities) {
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(host, channel)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(size, [f_mean], host)
  .reduce(ipt, [f_mean], channel)
  .collect(pkt)
)");
  ASSERT_EQ(plan.per_granularity.size(), 2u);
  EXPECT_EQ(plan.per_granularity[0].granularity, Granularity::kHost);
  EXPECT_EQ(plan.per_granularity[0].slots.size(), 1u);
  EXPECT_EQ(plan.per_granularity[1].slots.size(), 1u);
  EXPECT_EQ(plan.per_granularity[0].owners.size(), 1u);
  EXPECT_EQ(plan.per_granularity[1].owners.size(), 1u);
  EXPECT_EQ(plan.maps.size(), 2u);
  EXPECT_EQ(plan.field_count, 6);  // 4 builtins + one, ipt.
}

TEST(ExecTest, MapIptComputesGaps) {
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(flow)
  .map(ipt, tstamp, f_ipt)
  .reduce(ipt, [f_max, f_min])
  .collect(flow)
)");
  GroupState group = GroupState::Make(plan, 0, kExact);
  Feed(plan, group, Cell(100, 0));
  Feed(plan, group, Cell(100, 1000));
  Feed(plan, group, Cell(100, 4000));
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 3000.0);  // Max gap.
  EXPECT_DOUBLE_EQ(out[1], 0.0);     // First packet has ipt 0.
}

TEST(ExecTest, MapDirectionSignsValues) {
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .map(dir, one, f_direction)
  .reduce(dir, [f_array{4}])
  .collect(flow)
)");
  GroupState group = GroupState::Make(plan, 0, kExact);
  Feed(plan, group, Cell(100, 0, Direction::kForward));
  Feed(plan, group, Cell(100, 1, Direction::kBackward));
  Feed(plan, group, Cell(100, 2, Direction::kBackward));
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
  EXPECT_DOUBLE_EQ(out[2], -1.0);
  EXPECT_DOUBLE_EQ(out[3], 0.0);  // Padding.
}

TEST(ExecTest, MapBurstTracksRuns) {
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(flow)
  .map(burst, _, f_burst)
  .reduce(burst, [f_max])
  .collect(flow)
)");
  GroupState group = GroupState::Make(plan, 0, kExact);
  Feed(plan, group, Cell(100, 0, Direction::kForward));
  Feed(plan, group, Cell(100, 1, Direction::kForward));
  Feed(plan, group, Cell(100, 2, Direction::kForward));
  Feed(plan, group, Cell(100, 3, Direction::kBackward));
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  EXPECT_DOUBLE_EQ(out[0], 3.0);  // Longest same-direction run.
}

TEST(ExecTest, MapSpeedBytesPerSecond) {
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(flow)
  .map(speed, size, f_speed)
  .reduce(speed, [f_max])
  .collect(flow)
)");
  GroupState group = GroupState::Make(plan, 0, kExact);
  Feed(plan, group, Cell(1000, 0));
  Feed(plan, group, Cell(1000, 1000000));  // 1 ms gap.
  std::vector<double> out;
  EmitGroupFeatures(plan, 0, group, out);
  EXPECT_NEAR(out[0], 1000.0 / 0.001, 1e-6);
}

TEST(ExecTest, GranularityWidthsSum) {
  const ExecPlan plan = PlanFor(R"(
pktstream
  .groupby(host, channel)
  .reduce(size, [f_mean, f_var], host)
  .reduce(size, [ft_hist{100, 8}], channel)
  .collect(pkt)
)");
  EXPECT_EQ(plan.per_granularity[0].width, 2u);
  EXPECT_EQ(plan.per_granularity[1].width, 8u);
  EXPECT_EQ(plan.width, 10u);
}

}  // namespace
}  // namespace superfe
