// Coverage for small shared utilities and naming/diagnostic helpers.
#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "nicsim/cost_model.h"
#include "policy/functions.h"
#include "policy/value.h"
#include "switchsim/group_key.h"
#include "switchsim/mgpv.h"

namespace superfe {
namespace {

TEST(ValueTest, ScalarBasics) {
  Value v(3.5);
  EXPECT_TRUE(v.is_scalar());
  EXPECT_FALSE(v.is_array());
  EXPECT_DOUBLE_EQ(v.AsScalar(), 3.5);
  EXPECT_EQ(v.Flatten(), std::vector<double>{3.5});
  EXPECT_EQ(v.ToString(), "3.5");
}

TEST(ValueTest, IntPromotesToScalar) {
  Value v(int64_t{42});
  EXPECT_TRUE(v.is_scalar());
  EXPECT_DOUBLE_EQ(v.AsScalar(), 42.0);
}

TEST(ValueTest, ArrayBasics) {
  Value v(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(v.is_array());
  EXPECT_EQ(v.AsArray().size(), 3u);
  EXPECT_EQ(v.AsScalar(), 0.0);  // Scalar view of an array is zero.
  EXPECT_EQ(v.ToString(), "[1, 2, 3]");
}

TEST(ValueTest, LongArrayTruncatesInToString) {
  std::vector<double> xs(32, 1.0);
  Value v(xs);
  const std::string s = v.ToString();
  EXPECT_NE(s.find("(32 total)"), std::string::npos);
}

TEST(ValueTest, DefaultIsZeroScalar) {
  Value v;
  EXPECT_TRUE(v.is_scalar());
  EXPECT_EQ(v.AsScalar(), 0.0);
}

TEST(LoggingTest, LevelGateRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Statements below the gate must not be emitted (smoke: must not crash).
  SFE_DLOG() << "hidden debug";
  SFE_ILOG() << "hidden info";
  SetLogLevel(before);
}

TEST(NamesTest, EvictReasonNames) {
  EXPECT_STREQ(EvictReasonName(EvictReason::kCollision), "collision");
  EXPECT_STREQ(EvictReasonName(EvictReason::kShortFull), "short_full");
  EXPECT_STREQ(EvictReasonName(EvictReason::kLongFull), "long_full");
  EXPECT_STREQ(EvictReasonName(EvictReason::kAging), "aging");
  EXPECT_STREQ(EvictReasonName(EvictReason::kFlush), "flush");
}

TEST(NamesTest, MemLevelNames) {
  EXPECT_STREQ(MemLevelName(MemLevel::kCls), "CLS");
  EXPECT_STREQ(MemLevelName(MemLevel::kEmem), "EMEM");
}

TEST(NamesTest, GranularityNamesAndOrder) {
  EXPECT_STREQ(GranularityName(Granularity::kHost), "host");
  EXPECT_STREQ(GranularityName(Granularity::kFlow), "flow");
  EXPECT_TRUE(IsCoarserOrEqual(Granularity::kHost, Granularity::kSocket));
  EXPECT_TRUE(IsCoarserOrEqual(Granularity::kChannel, Granularity::kChannel));
  EXPECT_FALSE(IsCoarserOrEqual(Granularity::kSocket, Granularity::kHost));
  // socket and flow are equally fine.
  EXPECT_TRUE(IsCoarserOrEqual(Granularity::kSocket, Granularity::kFlow));
  EXPECT_TRUE(IsCoarserOrEqual(Granularity::kFlow, Granularity::kSocket));
}

TEST(GroupKeyTest, ToStringIsHex) {
  PacketRecord pkt;
  pkt.tuple.src_ip = MakeIp(1, 2, 3, 4);
  const GroupKey key = GroupKey::Of(InitiatorKey::Of(pkt), Granularity::kHost);
  EXPECT_EQ(key.ToString(), "host:01020304");
}

TEST(GroupKeyTest, OfDerivesEveryGranularity) {
  const InitiatorKey fg =
      InitiatorKey::Pack({MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 1000, 80, kProtoTcp});
  // Host = the initiator's IP (the FG tuple's source side).
  const GroupKey host = GroupKey::Of(fg, Granularity::kHost);
  EXPECT_EQ(host.length, 4);
  EXPECT_EQ(host.ToString(), "host:0a000001");
  // Channel = the ordered (initiator, responder) pair — not min/max.
  const GroupKey channel = GroupKey::Of(fg, Granularity::kChannel);
  EXPECT_EQ(channel.length, 8);
  EXPECT_EQ(channel.ToString(), "channel:0a0000010a000002");
  // Socket/flow carry the full tuple.
  EXPECT_EQ(GroupKey::Of(fg, Granularity::kSocket).length, 13);
  EXPECT_EQ(GroupKey::Of(fg, Granularity::kFlow).ToString(), "flow:0a0000010a00000203e8005006");
}

TEST(GroupKeyTest, BothDirectionsOfAFlowShareEveryKey) {
  // The sharding invariant: forward and reverse packets of one flow map to
  // identical keys (and hashes, hence shards) at every granularity.
  PacketRecord fwd;
  fwd.tuple = {MakeIp(10, 0, 0, 1), MakeIp(192, 168, 0, 9), 1234, 443, kProtoTcp};
  fwd.direction = Direction::kForward;
  PacketRecord bwd;
  bwd.tuple = fwd.tuple.Reversed();
  bwd.direction = Direction::kBackward;
  for (Granularity g : {Granularity::kHost, Granularity::kChannel, Granularity::kSocket,
                        Granularity::kFlow}) {
    const GroupKey f = GroupKey::Of(InitiatorKey::Of(fwd), g);
    const GroupKey b = GroupKey::Of(InitiatorKey::Of(bwd), g);
    EXPECT_EQ(f, b) << GranularityName(g);
    EXPECT_EQ(f.Hash(), b.Hash()) << GranularityName(g);
  }
  // A flow initiated from the other end is a *different* host and channel
  // group (ordered pair), even though the canonical IP set is the same.
  PacketRecord other = bwd;
  other.direction = Direction::kForward;
  EXPECT_NE(GroupKey::Of(InitiatorKey::Of(fwd), Granularity::kHost),
            GroupKey::Of(InitiatorKey::Of(other), Granularity::kHost));
  EXPECT_NE(GroupKey::Of(InitiatorKey::Of(fwd), Granularity::kChannel),
            GroupKey::Of(InitiatorKey::Of(other), Granularity::kChannel));
}

TEST(GroupKeyTest, HashDependsOnGranularity) {
  PacketRecord pkt;
  pkt.tuple = {MakeIp(9, 9, 9, 9), MakeIp(8, 8, 8, 8), 1, 2, kProtoUdp};
  const GroupKey socket = GroupKey::Of(InitiatorKey::Of(pkt), Granularity::kSocket);
  const GroupKey flow = GroupKey::Of(InitiatorKey::Of(pkt), Granularity::kFlow);
  // Same bytes, different granularity seed: distinct hashes.
  EXPECT_NE(socket.Hash(), flow.Hash());
}

TEST(GroupKeyTest, InitiatorKeyUndoesDirection) {
  PacketRecord fwd;
  fwd.tuple = {1, 2, 3, 4, kProtoTcp};
  fwd.direction = Direction::kForward;
  PacketRecord bwd;
  bwd.tuple = fwd.tuple.Reversed();
  bwd.direction = Direction::kBackward;
  EXPECT_EQ(InitiatorKey::Of(fwd), InitiatorKey::Of(bwd));
  EXPECT_EQ(InitiatorKey::Of(bwd), InitiatorKey::Pack(fwd.tuple));
}

// The packed key's bytes are the tuple's ToBytes() layout (FiveTupleTest.
// ToBytesLayout), each granularity keeps a prefix of them, and the packed
// hashes equal Crc32 over those bytes, for random tuples in both directions.
TEST(GroupKeyTest, PackedHashesMatchCrcOverKeyBytes) {
  Rng rng(26);
  for (int i = 0; i < 2000; ++i) {
    PacketRecord pkt;
    pkt.tuple = {static_cast<uint32_t>(rng.NextU64()), static_cast<uint32_t>(rng.NextU64()),
                 static_cast<uint16_t>(rng.NextU64()), static_cast<uint16_t>(rng.NextU64()),
                 static_cast<uint8_t>(rng.NextU64())};
    pkt.direction = rng.Bernoulli(0.5) ? Direction::kForward : Direction::kBackward;
    const InitiatorKey key = InitiatorKey::Of(pkt);
    const auto tuple_bytes = pkt.InitiatorTuple().ToBytes();
    for (Granularity g : {Granularity::kHost, Granularity::kChannel, Granularity::kSocket,
                          Granularity::kFlow}) {
      const GroupKey group = GroupKey::Of(key, g);
      ASSERT_EQ(group.length, InitiatorKey::PrefixBytes(g));
      for (int b = 0; b < 13; ++b) {
        ASSERT_EQ(group.bytes[b], b < group.length ? tuple_bytes[b] : 0)
            << GranularityName(g) << " byte " << b;
      }
      ASSERT_EQ(key.Hash(g), Crc32(tuple_bytes.data(), group.length, GroupKey::Seed(g)))
          << GranularityName(g);
      ASSERT_EQ(key.Hash(g), group.Hash()) << GranularityName(g);
      // Prefixes compare equal exactly when the granularity's keys do.
      ASSERT_EQ(key.Prefix(g), InitiatorKey::Pack(pkt.InitiatorTuple()).Prefix(g));
    }
    for (uint32_t seed : {0u, 0xf60f60u, static_cast<uint32_t>(rng.NextU64())}) {
      ASSERT_EQ(key.Crc(seed), Crc32(tuple_bytes.data(), tuple_bytes.size(), seed));
    }
  }
}

TEST(GroupKeyTest, PrefixKeepsOnlyTheGranularitysWords) {
  const InitiatorKey key =
      InitiatorKey::Pack({MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 1000, 80, kProtoTcp});
  const InitiatorKey other_port =
      InitiatorKey::Pack({MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 1001, 80, kProtoTcp});
  const InitiatorKey other_dst =
      InitiatorKey::Pack({MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 3), 1000, 80, kProtoTcp});
  EXPECT_EQ(key.Prefix(Granularity::kHost), other_dst.Prefix(Granularity::kHost));
  EXPECT_NE(key.Prefix(Granularity::kChannel), other_dst.Prefix(Granularity::kChannel));
  EXPECT_EQ(key.Prefix(Granularity::kChannel), other_port.Prefix(Granularity::kChannel));
  EXPECT_NE(key.Prefix(Granularity::kFlow), other_port.Prefix(Granularity::kFlow));
}

TEST(FunctionsTest, OutputWidths) {
  ReduceSpec hist{ReduceFn::kHist};
  hist.param1 = 32;
  EXPECT_EQ(OutputWidth(hist), 32u);
  ReduceSpec arr{ReduceFn::kArray};
  arr.array_limit = 777;
  EXPECT_EQ(OutputWidth(arr), 777u);
  ReduceSpec arr_default{ReduceFn::kArray};
  EXPECT_EQ(OutputWidth(arr_default), 5000u);
  EXPECT_EQ(OutputWidth(ReduceSpec{ReduceFn::kMean}), 1u);
}

TEST(FunctionsTest, DecayAddsStateAndOps) {
  ReduceSpec plain{ReduceFn::kMean};
  ReduceSpec damped{ReduceFn::kMean};
  damped.decay_lambda = 1.0;
  const ReduceCost plain_cost = CostOfReduce(plain);
  const ReduceCost damped_cost = CostOfReduce(damped);
  EXPECT_GT(damped_cost.state_bytes, plain_cost.state_bytes);
  EXPECT_GT(damped_cost.alu_ops, plain_cost.alu_ops);
}

TEST(FunctionsTest, HistogramStateScalesWithBins) {
  ReduceSpec small{ReduceFn::kHist};
  small.param0 = 10;
  small.param1 = 8;
  ReduceSpec big = small;
  big.param1 = 64;
  EXPECT_EQ(CostOfReduce(big).state_bytes, 8 * CostOfReduce(small).state_bytes);
}

TEST(FunctionsTest, MapCosts) {
  EXPECT_EQ(CostOfMap(MapFn::kOne).state_bytes, 0u);
  EXPECT_GT(CostOfMap(MapFn::kIpt).state_bytes, 0u);
  EXPECT_GT(CostOfMap(MapFn::kSpeed).divisions, 0u);
  EXPECT_EQ(CostOfMap(MapFn::kDirection).divisions, 0u);
}

TEST(CostModelTest, DivisionEliminationChangesCost) {
  NfpArch arch;
  CellWork work;
  work.alu_ops = 10;
  work.divisions = 2;
  work.mem_accesses = 1;
  work.mem_latency_cycles = 100;
  work.hashes = 1;

  NicPerfModel with(arch, NicOptimizations::All());
  with.AccountCell(work);
  NicPerfModel without(arch, NicOptimizations::None());
  without.AccountCell(work);
  EXPECT_GT(without.EffectiveCycles(), with.EffectiveCycles() + 2000);
}

TEST(CostModelTest, ThreadingHidesMemoryLatency) {
  NfpArch arch;
  CellWork work;
  work.alu_ops = 5;
  work.mem_accesses = 4;
  work.mem_latency_cycles = 4000;  // Memory-bound cell.
  work.hashes = 0;

  NicOptimizations threaded = NicOptimizations::None();
  threaded.multithreading = true;
  NicPerfModel with(arch, threaded);
  with.AccountCell(work);
  NicPerfModel without(arch, NicOptimizations::None());
  without.AccountCell(work);
  EXPECT_LT(with.EffectiveCycles(), without.EffectiveCycles());
}

TEST(CostModelTest, ThroughputZeroWithoutWork) {
  NfpArch arch;
  NicPerfModel model(arch, NicOptimizations::All());
  EXPECT_EQ(model.ThroughputPps(60), 0.0);
}

TEST(MgpvConfigTest, FootprintComponents) {
  MgpvConfig config;
  config.short_buffers = 100;
  config.short_size = 4;
  config.long_buffers = 10;
  config.long_size = 20;
  config.metadata_bytes_per_cell = 7;
  config.cg = Granularity::kHost;
  const uint64_t single = config.MemoryFootprintBytes();
  config.metadata_bytes_per_cell = 14;
  EXPECT_GT(config.MemoryFootprintBytes(), single);
}

}  // namespace
}  // namespace superfe
