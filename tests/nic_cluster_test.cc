#include <gtest/gtest.h>

#include "nicsim/nic_cluster.h"
#include "net/trace_gen.h"
#include "policy/parser.h"
#include "switchsim/fe_switch.h"

namespace superfe {
namespace {

CompiledPolicy CompileSource(const std::string& source) {
  auto policy = ParsePolicy("cluster", source);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  auto compiled = Compile(*policy);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

const char* kCountPolicy = R"(
pktstream
  .groupby(flow)
  .map(one, _, f_one)
  .reduce(one, [f_sum])
  .collect(flow)
)";

TEST(NicClusterTest, RejectsEmptyCluster) {
  const CompiledPolicy compiled = CompileSource(kCountPolicy);
  CollectingFeatureSink sink;
  EXPECT_FALSE(NicCluster::Create(compiled, FeNicConfig{}, 0, &sink).ok());
}

TEST(NicClusterTest, DistributesLoadAndConservesCells) {
  const CompiledPolicy compiled = CompileSource(kCountPolicy);
  CollectingFeatureSink sink;
  auto cluster = std::move(NicCluster::Create(compiled, FeNicConfig{}, 4, &sink)).value();
  FeSwitch fe(compiled, cluster.get());

  const Trace trace = GenerateTrace(EnterpriseProfile(), 30000, 8);
  for (const auto& pkt : trace.packets()) {
    fe.OnPacket(pkt);
  }
  fe.Flush();
  cluster->Flush();

  uint64_t total_cells = 0;
  int members_with_work = 0;
  for (size_t i = 0; i < cluster->size(); ++i) {
    total_cells += cluster->nic(i).stats().cells;
    members_with_work += cluster->nic(i).stats().cells > 0 ? 1 : 0;
  }
  EXPECT_EQ(total_cells, trace.size());
  EXPECT_EQ(members_with_work, 4);
  // Hash routing over many flows balances well.
  EXPECT_LT(cluster->LoadImbalance(), 1.3);

  // Per-flow counts still sum to the packet count (no loss at the router).
  double count_sum = 0.0;
  for (const auto& v : sink.vectors()) {
    count_sum += v.values[0];
  }
  EXPECT_DOUBLE_EQ(count_sum, static_cast<double>(trace.size()));
}

TEST(NicClusterTest, GroupNeverSplitsAcrossMembers) {
  const CompiledPolicy compiled = CompileSource(kCountPolicy);
  CollectingFeatureSink sink;
  auto cluster = std::move(NicCluster::Create(compiled, FeNicConfig{}, 3, &sink)).value();
  FeSwitch fe(compiled, cluster.get());

  // One flow, many packets spread over many reports.
  Rng rng(4);
  FiveTuple tuple{MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 1000, 80, kProtoTcp};
  for (const auto& pkt : GenerateFlow(tuple, 500, 0, 100.0, {{500, 1.0}}, 0.6, rng)) {
    fe.OnPacket(pkt);
  }
  fe.Flush();
  cluster->Flush();

  // Exactly one vector with the full count: all reports of the flow landed
  // on the same member.
  ASSERT_EQ(sink.vectors().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.vectors()[0].values[0], 500.0);
}

TEST(NicClusterTest, MoreNicsMoreThroughput) {
  const CompiledPolicy compiled = CompileSource(kCountPolicy);
  const Trace trace = GenerateTrace(EnterpriseProfile(), 20000, 6);

  auto run_with = [&](size_t nic_count) {
    CollectingFeatureSink sink;
    auto cluster =
        std::move(NicCluster::Create(compiled, FeNicConfig{}, nic_count, &sink)).value();
    FeSwitch fe(compiled, cluster.get());
    for (const auto& pkt : trace.packets()) {
      fe.OnPacket(pkt);
    }
    fe.Flush();
    cluster->Flush();
    return cluster->ThroughputPps(60);
  };

  const double one = run_with(1);
  const double four = run_with(4);
  EXPECT_GT(four, one * 3.0);  // Near-linear scale-out.
}

TEST(FeNicIdleTest, IdleTimeoutEmitsWithoutFlush) {
  const CompiledPolicy compiled = CompileSource(kCountPolicy);
  CollectingFeatureSink sink;
  FeNicConfig config;
  config.idle_timeout_ns = 1000000;  // 1 ms.
  auto nic = std::move(FeNic::Create(compiled, config, &sink)).value();
  FeSwitch fe(compiled, nic.get());

  // Flow A at t=0, then unrelated traffic 10 ms later triggers the sweep.
  PacketRecord a;
  a.tuple = {MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 1000, 80, kProtoTcp};
  a.timestamp_ns = 0;
  a.wire_bytes = 100;
  fe.OnPacket(a);
  // Force flow A's report out of the switch quickly with a tiny cache.
  fe.mutable_cache().Flush();

  PacketRecord b;
  b.tuple = {MakeIp(10, 0, 0, 3), MakeIp(10, 0, 0, 4), 2000, 80, kProtoTcp};
  b.timestamp_ns = 10000000;
  b.wire_bytes = 100;
  fe.OnPacket(b);
  fe.mutable_cache().Flush();

  // Flow A's vector was emitted by the idle sweep, before any NIC flush.
  ASSERT_GE(sink.vectors().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.vectors()[0].values[0], 1.0);
}

TEST(GroupTableEraseTest, EraseRemovesBucketAndDramEntries) {
  GroupTable<int> table(1, 1);
  bool via_dram = false;
  PacketRecord p1;
  p1.tuple.src_ip = 1;
  PacketRecord p2;
  p2.tuple.src_ip = 2;
  const GroupKey k1 = GroupKey::Of(InitiatorKey::Of(p1), Granularity::kHost);
  const GroupKey k2 = GroupKey::Of(InitiatorKey::Of(p2), Granularity::kHost);
  table.FindOrCreate(k1, 0, [] { return 1; }, via_dram);
  table.FindOrCreate(k2, 0, [] { return 2; }, via_dram);  // Overflows to DRAM.
  EXPECT_TRUE(via_dram);

  EXPECT_TRUE(table.Erase(k2, 0));
  EXPECT_EQ(table.Find(k2, 0), nullptr);
  EXPECT_TRUE(table.Erase(k1, 0));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.Erase(k1, 0));
}

}  // namespace
}  // namespace superfe
