// Split-invariance tests for the one update path: UpdateGroupBatch over a
// whole run, one-row runs and random splits, and FeNic fed one OnMgpvBatch
// over all reports, one OnMgpv per report and random splits of the reports,
// must all give the same bits (docs/ARCHITECTURE.md, "Exactness contract").
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/feature_vector.h"
#include "nicsim/exec.h"
#include "nicsim/fe_nic.h"
#include "policy/compile.h"
#include "policy/parser.h"
#include "switchsim/fe_switch.h"

namespace superfe {
namespace {

CompiledPolicy CompileSource(const std::string& source) {
  auto policy = ParsePolicy("t", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  auto compiled = Compile(*policy);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

ExecPlan PlanFor(const std::string& source) {
  auto plan = ExecPlan::FromProgram(CompileSource(source).nic_program);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

MgpvCell Cell(const FiveTuple& tuple, double size, uint64_t ts_ns, Direction dir) {
  MgpvCell cell;
  cell.size = static_cast<uint16_t>(size);
  cell.full_timestamp_ns = ts_ns;
  cell.tstamp = static_cast<uint32_t>(ts_ns);
  cell.direction = dir;
  cell.fg_key = InitiatorKey::Pack(tuple);
  return cell;
}

// Random mixed-group report stream: `flows` five-tuples sharing a few hosts,
// interleaved cells with monotone timestamps and mixed directions. As from
// the switch, each report holds the cells of one host group and carries
// that group's key and hash.
std::vector<MgpvReport> MakeReports(uint64_t seed, int flows, int cells_per_report,
                                    int reports) {
  Rng rng(seed);
  std::vector<FiveTuple> tuples;
  for (int f = 0; f < flows; ++f) {
    tuples.push_back({static_cast<uint32_t>(0x0a000001 + f % 3),
                      static_cast<uint32_t>(0xac100001 + f % 5),
                      static_cast<uint16_t>(1000 + f), 80, kProtoTcp});
  }
  std::vector<MgpvReport> out;
  uint64_t ts = 1;
  for (int r = 0; r < reports; ++r) {
    const uint32_t host = tuples[rng.UniformU64(tuples.size())].src_ip;
    std::vector<FiveTuple> host_tuples;
    for (const FiveTuple& t : tuples) {
      if (t.src_ip == host) {
        host_tuples.push_back(t);
      }
    }
    MgpvReport report;
    report.cg_key = GroupKey::Of(InitiatorKey::Pack(host_tuples[0]), Granularity::kHost);
    report.hash = report.cg_key.Hash();
    for (int c = 0; c < cells_per_report; ++c) {
      const FiveTuple& t = host_tuples[rng.UniformU64(host_tuples.size())];
      ts += 1000 + rng.UniformU64(100000);
      const Direction dir =
          rng.Bernoulli(0.5) ? Direction::kForward : Direction::kBackward;
      report.cells.push_back(
          Cell(t, 64 + static_cast<double>(rng.UniformU64(1400)), ts, dir));
    }
    out.push_back(std::move(report));
  }
  return out;
}

const char* kRichPolicy = R"(
pktstream
  .groupby(host, socket)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum], host)
  .reduce(size, [f_mean, f_var, f_min, f_max], host)
  .reduce(size, [f_mean, f_std], socket)
  .reduce(ipt, [f_mean, f_max], socket)
  .collect(socket)
)";

// Emission of `group` at granularity index `gi` as raw bits.
std::vector<uint64_t> EmittedBits(const ExecPlan& plan, size_t gi, const GroupState& group) {
  std::vector<double> out;
  EmitGroupFeatures(plan, gi, group, out);
  std::vector<uint64_t> bits;
  for (double v : out) {
    bits.push_back(std::bit_cast<uint64_t>(v));
  }
  return bits;
}

TEST(BatchExecTest, UpdateGroupBatchMatchesPerCellUpdates) {
  // One group's cells as one run, as one-row runs and as runs split at
  // random rows: the same bits under NIC and exact arithmetic (integer and
  // double Welford, exact sums).
  const ExecPlan plan = PlanFor(kRichPolicy);
  const std::vector<MgpvReport> reports = MakeReports(7, /*flows=*/1, 64, 4);
  for (const bool nic : {true, false}) {
    ExecOptions options;
    options.nic_arithmetic = nic;
    Rng rng(nic ? 3 : 4);
    for (size_t gi = 0; gi < plan.per_granularity.size(); ++gi) {
      PacketBatchSoA soa;
      soa.Assemble(reports.data(), reports.size());
      soa.SortByPrefix(InitiatorKey::PrefixBytes(plan.per_granularity[gi].granularity));

      GroupState whole = GroupState::Make(plan, gi, options);
      UpdateGroupBatch(plan, gi, whole, soa, 0, soa.rows());
      GroupState rows = GroupState::Make(plan, gi, options);
      for (size_t r = 0; r < soa.rows(); ++r) {
        UpdateGroupBatch(plan, gi, rows, soa, r, r + 1);
      }
      GroupState split = GroupState::Make(plan, gi, options);
      for (size_t begin = 0; begin < soa.rows();) {
        const size_t end = std::min(soa.rows(), begin + 1 + rng.UniformU64(40));
        UpdateGroupBatch(plan, gi, split, soa, begin, end);
        begin = end;
      }

      EXPECT_EQ(rows.packets, whole.packets);
      EXPECT_EQ(rows.last_seen_ns, whole.last_seen_ns);
      const std::vector<uint64_t> expected = EmittedBits(plan, gi, whole);
      EXPECT_EQ(EmittedBits(plan, gi, rows), expected) << "nic=" << nic << " gi=" << gi;
      EXPECT_EQ(EmittedBits(plan, gi, split), expected) << "nic=" << nic << " gi=" << gi;
    }
  }
}

TEST(BatchExecTest, SoaSortKeepsPerGroupArrivalOrder) {
  // At every granularity prefix, the stable sort must keep each group's
  // internal cell order — arrival order, i.e. non-decreasing timestamps
  // here (the ipt/burst recurrences depend on it), also when a coarser
  // prefix follows a finer one.
  const std::vector<MgpvReport> reports = MakeReports(11, /*flows=*/8, 32, 6);
  PacketBatchSoA soa;
  soa.Assemble(reports.data(), reports.size());
  ASSERT_EQ(soa.rows(), 6u * 32u);
  for (const Granularity g : {Granularity::kHost, Granularity::kChannel, Granularity::kFlow,
                              Granularity::kHost}) {
    const int prefix = InitiatorKey::PrefixBytes(g);
    soa.SortByPrefix(prefix);
    for (size_t i = 1; i < soa.rows(); ++i) {
      if (soa.SamePrefix(i - 1, i, prefix)) {
        EXPECT_LE(soa.tstamp_ns[i - 1], soa.tstamp_ns[i])
            << "granularity prefix " << prefix << " row " << i;
      }
    }
  }
}

std::vector<FeatureVector> SortedVectors(const CollectingFeatureSink& sink) {
  std::vector<FeatureVector> vs = sink.vectors();
  std::sort(vs.begin(), vs.end(), [](const FeatureVector& a, const FeatureVector& b) {
    if (a.group.length != b.group.length) {
      return a.group.length < b.group.length;
    }
    const int c = std::memcmp(a.group.bytes.data(), b.group.bytes.data(), a.group.length);
    if (c != 0) {
      return c < 0;
    }
    return a.timestamp_ns < b.timestamp_ns;
  });
  return vs;
}

void ExpectSameBits(const CollectingFeatureSink& expected_sink,
                    const CollectingFeatureSink& actual_sink, const std::string& feed) {
  const std::vector<FeatureVector> expected = SortedVectors(expected_sink);
  const std::vector<FeatureVector> actual = SortedVectors(actual_sink);
  ASSERT_EQ(actual.size(), expected.size()) << feed;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].group, expected[i].group) << feed << " vector " << i;
    EXPECT_EQ(actual[i].timestamp_ns, expected[i].timestamp_ns) << feed << " vector " << i;
    ASSERT_EQ(actual[i].values.size(), expected[i].values.size()) << feed;
    for (size_t j = 0; j < expected[i].values.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(actual[i].values[j]),
                std::bit_cast<uint64_t>(expected[i].values[j]))
          << feed << " vector " << i << " value " << j << ": " << actual[i].values[j]
          << " vs " << expected[i].values[j];
    }
  }
}

// Feeds the same reports to three NICs — one OnMgpvBatch over all of them,
// one OnMgpv per report, and OnMgpvBatch over slices cut at random reports
// — and checks that all three emit the same vectors, bit for bit.
void RunThreeFeeds(const char* policy_src, FeNicConfig config) {
  const CompiledPolicy compiled = CompileSource(policy_src);
  const std::vector<MgpvReport> reports = MakeReports(23, /*flows=*/10, 48, 8);

  CollectingFeatureSink whole_sink;
  auto whole = std::move(FeNic::Create(compiled, config, &whole_sink)).value();
  whole->OnMgpvBatch(reports.data(), reports.size());
  whole->Flush();

  CollectingFeatureSink per_report_sink;
  auto per_report = std::move(FeNic::Create(compiled, config, &per_report_sink)).value();
  for (const auto& report : reports) {
    per_report->OnMgpv(report);
  }
  per_report->Flush();

  CollectingFeatureSink split_sink;
  auto split = std::move(FeNic::Create(compiled, config, &split_sink)).value();
  Rng rng(29);
  for (size_t begin = 0; begin < reports.size();) {
    const size_t end = std::min(reports.size(), begin + 1 + rng.UniformU64(4));
    split->OnMgpvBatch(reports.data() + begin, end - begin);
    begin = end;
  }
  split->Flush();

  EXPECT_EQ(per_report->stats().cells, whole->stats().cells);
  EXPECT_EQ(split->stats().cells, whole->stats().cells);
  ExpectSameBits(whole_sink, per_report_sink, "per report");
  ExpectSameBits(whole_sink, split_sink, "random split");
}

TEST(BatchExecTest, FeNicBatchAndScalarPathsEmitIdenticalVectors) {
  RunThreeFeeds(kRichPolicy, FeNicConfig{});
}

TEST(BatchExecTest, FeNicBatchMatchesScalarWithIdleTimeout) {
  // idle_timeout_ns > 0 forces per-report batches (eviction decisions are
  // report-boundary); every feed must still agree.
  FeNicConfig config;
  config.idle_timeout_ns = 50000;
  RunThreeFeeds(kRichPolicy, config);
}

TEST(BatchExecTest, FeNicBatchMatchesScalarOnCardinalityAndHistogram) {
  RunThreeFeeds(R"(
pktstream
  .groupby(host, flow)
  .map(one, _, f_one)
  .reduce(fgkey, [f_card], host)
  .reduce(size, [ft_hist{1600, 16}], flow)
  .reduce(size, [ft_percent{0.9}], flow)
  .collect(flow)
)",
                FeNicConfig{});
}

TEST(BatchExecTest, FeNicFeedsAgreeUnderExactArithmetic) {
  // The double families (sum over non-integer speeds, Welford, moments)
  // fold in arrival order, so every feed gives the same bits.
  FeNicConfig config;
  config.exec.nic_arithmetic = false;
  RunThreeFeeds(R"(
pktstream
  .groupby(host, flow)
  .map(ipt, tstamp, f_ipt)
  .map(speed, size, f_speed)
  .reduce(size, [f_mean, f_var, f_skew, f_kur], host)
  .reduce(speed, [f_sum, f_mean, f_std], host)
  .reduce(ipt, [f_mean, f_var, f_skew, f_kur], flow)
  .collect(flow)
)",
                config);
}

TEST(BatchExecTest, PerPacketCollectRunsOneRowRuns) {
  // Per-packet collection walks the assembled batch in arrival order, one
  // row at a time across the chain, and emits a vector after each row:
  // one vector per cell, whichever way the reports are fed.
  const char* policy = R"(
pktstream
  .groupby(host, flow)
  .map(one, _, f_one)
  .map(ipt, tstamp, f_ipt)
  .reduce(one, [f_sum], host)
  .reduce(size, [f_mean, f_skew], host)
  .reduce(ipt, [f_sum, f_max], flow)
  .collect(pkt)
)";
  RunThreeFeeds(policy, FeNicConfig{});
  FeNicConfig exact;
  exact.exec.nic_arithmetic = false;
  RunThreeFeeds(policy, exact);

  const std::vector<MgpvReport> reports = MakeReports(23, /*flows=*/10, 48, 8);
  CollectingFeatureSink sink;
  auto nic = std::move(FeNic::Create(CompileSource(policy), FeNicConfig{}, &sink)).value();
  nic->OnMgpvBatch(reports.data(), reports.size());
  nic->Flush();
  ASSERT_EQ(sink.vectors().size(), 8u * 48u);
  size_t i = 0;
  for (const auto& report : reports) {
    for (const auto& cell : report.cells) {
      EXPECT_EQ(sink.vectors()[i].timestamp_ns, cell.full_timestamp_ns) << "vector " << i;
      EXPECT_EQ(sink.vectors()[i].group, GroupKey::Of(cell.fg_key, Granularity::kFlow))
          << "vector " << i;
      ++i;
    }
  }
}

}  // namespace
}  // namespace superfe
