// Equivalence tests for the SoA batch execution path: UpdateGroupBatch vs
// per-cell UpdateGroup, and FeNic with batch kernels on vs off, under the
// exactness contract of streaming/batch.h (bit-identical for the NIC's
// integer/fixed-point kernels, same multiset of vectors end to end).
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(BatchExecTest, UpdateGroupBatchMatchesPerCellUpdates) {
  // One group's cells, applied per-cell vs as one batch run: identical
  // features under NIC arithmetic (integer Welford, exact integral sums).
  const ExecPlan plan = PlanFor(kRichPolicy);
  const ExecOptions options{};  // nic_arithmetic = true.
  const std::vector<MgpvReport> reports = MakeReports(7, /*flows=*/1, 64, 4);

  for (size_t gi = 0; gi < plan.per_granularity.size(); ++gi) {
    GroupState scalar = GroupState::Make(plan, gi, options);
    for (const auto& report : reports) {
      for (const auto& cell : report.cells) {
        UpdateGroup(plan, gi, scalar, cell);
      }
    }

    GroupState batch = GroupState::Make(plan, gi, options);
    PacketBatchSoA soa;
    soa.Assemble(reports.data(), reports.size());
    soa.SortByPrefix(
        InitiatorKey::PrefixBytes(plan.per_granularity[gi].granularity));
    UpdateGroupBatch(plan, gi, batch, soa, 0, soa.rows());

    EXPECT_EQ(batch.packets, scalar.packets);
    EXPECT_EQ(batch.last_seen_ns, scalar.last_seen_ns);
    std::vector<double> from_scalar, from_batch;
    EmitGroupFeatures(plan, gi, scalar, from_scalar);
    EmitGroupFeatures(plan, gi, batch, from_batch);
    ASSERT_EQ(from_batch.size(), from_scalar.size());
    for (size_t i = 0; i < from_scalar.size(); ++i) {
      EXPECT_DOUBLE_EQ(from_batch[i], from_scalar[i])
          << "gi=" << gi << " feature " << i;
    }
  }
}

TEST(BatchExecTest, SoaSortKeepsPerGroupArrivalOrder) {
  // At every granularity prefix, the stable sort must keep each group's
  // internal cell order — arrival order, i.e. non-decreasing timestamps
  // here (the ipt/burst recurrences depend on it).
  const std::vector<MgpvReport> reports = MakeReports(11, /*flows=*/8, 32, 6);
  PacketBatchSoA soa;
  soa.Assemble(reports.data(), reports.size());
  ASSERT_EQ(soa.rows(), 6u * 32u);
  for (const Granularity g :
       {Granularity::kHost, Granularity::kChannel, Granularity::kFlow}) {
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

std::vector<FeatureVector> SortedVectors(CollectingFeatureSink& sink) {
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

void ExpectSameVectors(CollectingFeatureSink& batch_sink,
                       CollectingFeatureSink& scalar_sink) {
  const std::vector<FeatureVector> batch = SortedVectors(batch_sink);
  const std::vector<FeatureVector> scalar = SortedVectors(scalar_sink);
  ASSERT_EQ(batch.size(), scalar.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].group, scalar[i].group) << "vector " << i;
    ASSERT_EQ(batch[i].values.size(), scalar[i].values.size());
    for (size_t j = 0; j < batch[i].values.size(); ++j) {
      EXPECT_DOUBLE_EQ(batch[i].values[j], scalar[i].values[j])
          << "vector " << i << " value " << j;
    }
  }
}

void RunBothPaths(const char* policy_src, FeNicConfig base_config) {
  const CompiledPolicy compiled = CompileSource(policy_src);
  const std::vector<MgpvReport> reports = MakeReports(23, /*flows=*/10, 48, 8);

  FeNicConfig batch_config = base_config;
  batch_config.batch_kernels = true;
  CollectingFeatureSink batch_sink;
  auto batch_nic = std::move(FeNic::Create(compiled, batch_config, &batch_sink)).value();
  batch_nic->OnMgpvBatch(reports.data(), reports.size());
  batch_nic->Flush();

  FeNicConfig scalar_config = base_config;
  scalar_config.batch_kernels = false;
  CollectingFeatureSink scalar_sink;
  auto scalar_nic =
      std::move(FeNic::Create(compiled, scalar_config, &scalar_sink)).value();
  for (const auto& report : reports) {
    scalar_nic->OnMgpv(report);
  }
  scalar_nic->Flush();

  // The batch path runs the same number of cells through the same policy.
  EXPECT_EQ(batch_nic->stats().cells, scalar_nic->stats().cells);
  ExpectSameVectors(batch_sink, scalar_sink);
}

TEST(BatchExecTest, FeNicBatchAndScalarPathsEmitIdenticalVectors) {
  RunBothPaths(kRichPolicy, FeNicConfig{});
}

TEST(BatchExecTest, FeNicBatchMatchesScalarWithIdleTimeout) {
  // idle_timeout_ns > 0 forces per-report batches (eviction decisions are
  // report-boundary); results must still match the scalar path.
  FeNicConfig config;
  config.idle_timeout_ns = 50000;
  RunBothPaths(kRichPolicy, config);
}

TEST(BatchExecTest, FeNicBatchMatchesScalarOnCardinalityAndHistogram) {
  RunBothPaths(R"(
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

TEST(BatchExecTest, PerPacketCollectFallsBackToScalarPath) {
  // Per-packet collection emits a snapshot per cell; the batch router must
  // take the scalar path so snapshots stay per-cell. Just verify the two
  // configs agree (both run the scalar path).
  RunBothPaths(R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum])
  .collect(pkt)
)",
               FeNicConfig{});
}

}  // namespace
}  // namespace superfe
