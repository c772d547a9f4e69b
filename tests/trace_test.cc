#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_set>

#include "net/attack_gen.h"
#include "net/pcap.h"
#include "net/replay.h"
#include "net/trace_gen.h"

namespace superfe {
namespace {

class VectorSink : public PacketSink {
 public:
  void OnPacket(const PacketRecord& pkt) override { packets.push_back(pkt); }
  std::vector<PacketRecord> packets;
};

TEST(TraceTest, SortAndOrderCheck) {
  Trace trace;
  PacketRecord p;
  p.timestamp_ns = 10;
  trace.Add(p);
  p.timestamp_ns = 5;
  trace.Add(p);
  EXPECT_FALSE(trace.IsTimeOrdered());
  trace.SortByTime();
  EXPECT_TRUE(trace.IsTimeOrdered());
}

TEST(TraceTest, StatsCountFlowsAndBytes) {
  Trace trace;
  PacketRecord p;
  p.tuple = {1, 2, 3, 4, kProtoTcp};
  p.wire_bytes = 100;
  p.timestamp_ns = 0;
  trace.Add(p);
  p.tuple = p.tuple.Reversed();  // Same canonical flow.
  p.timestamp_ns = 1000000000;
  trace.Add(p);
  p.tuple = {9, 9, 9, 9, kProtoUdp};
  p.timestamp_ns = 2000000000;
  trace.Add(p);

  const TraceStats stats = trace.ComputeStats();
  EXPECT_EQ(stats.packet_count, 3u);
  EXPECT_EQ(stats.flow_count, 2u);
  EXPECT_EQ(stats.total_bytes, 300u);
  EXPECT_NEAR(stats.duration_seconds, 2.0, 1e-9);
}

// Property sweep: every paper profile must reproduce its Table 2 targets.
class ProfileTest : public ::testing::TestWithParam<int> {};

TEST_P(ProfileTest, MatchesTable2Targets) {
  const TraceProfile profile = PaperProfiles()[GetParam()];
  const Trace trace = GenerateTrace(profile, 150000, 42);
  const TraceStats stats = trace.ComputeStats();

  EXPECT_GE(stats.packet_count, 150000u);
  // Flow length within 20% of the target (heavy-tailed draws need slack).
  EXPECT_NEAR(stats.avg_flow_length_pkts, profile.mean_flow_length_pkts,
              profile.mean_flow_length_pkts * 0.20);
  // Packet size within 5% of the Table 2 target (the mixes are calibrated
  // to include minimum-size TCP handshake packets).
  EXPECT_NEAR(stats.avg_packet_size_bytes, profile.target_mean_packet_size,
              profile.target_mean_packet_size * 0.05);
  EXPECT_TRUE(trace.IsTimeOrdered());
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileTest, ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           std::string name = PaperProfiles()[info.param].name;
                           for (auto& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(TraceGenTest, DeterministicForSeed) {
  const TraceProfile profile = EnterpriseProfile();
  const Trace a = GenerateTrace(profile, 5000, 7);
  const Trace b = GenerateTrace(profile, 5000, 7);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.packets()[i].tuple, b.packets()[i].tuple);
    EXPECT_EQ(a.packets()[i].timestamp_ns, b.packets()[i].timestamp_ns);
  }
}

TEST(TraceGenTest, DifferentSeedsDiffer) {
  const TraceProfile profile = EnterpriseProfile();
  const Trace a = GenerateTrace(profile, 2000, 1);
  const Trace b = GenerateTrace(profile, 2000, 2);
  bool different = a.size() != b.size();
  for (size_t i = 0; !different && i < a.size(); ++i) {
    different = !(a.packets()[i].tuple == b.packets()[i].tuple);
  }
  EXPECT_TRUE(different);
}

TEST(TraceGenTest, FlowsStartWithSyn) {
  FiveTuple tuple{1, 2, 3, 4, kProtoTcp};
  Rng rng(5);
  const auto flow = GenerateFlow(tuple, 10, 0, 100.0, {{512, 1.0}}, 0.6, rng);
  ASSERT_EQ(flow.size(), 10u);
  EXPECT_EQ(flow[0].tcp_flags, kTcpSyn);
  EXPECT_EQ(flow[0].direction, Direction::kForward);
  EXPECT_TRUE((flow.back().tcp_flags & kTcpFin) != 0);
}

TEST(TraceGenTest, BackwardPacketsReverseTuple) {
  FiveTuple tuple{1, 2, 3, 4, kProtoTcp};
  Rng rng(5);
  const auto flow = GenerateFlow(tuple, 200, 0, 100.0, {{512, 1.0}}, 0.5, rng);
  bool saw_backward = false;
  for (const auto& pkt : flow) {
    if (pkt.direction == Direction::kBackward) {
      saw_backward = true;
      EXPECT_EQ(pkt.tuple, tuple.Reversed());
    } else {
      EXPECT_EQ(pkt.tuple, tuple);
    }
  }
  EXPECT_TRUE(saw_backward);
}

TEST(AttackGenTest, OsScanTouchesManyDestinations) {
  AttackConfig config;
  config.type = AttackType::kOsScan;
  config.attack_packets = 5000;
  const LabeledTrace lt = GenerateAttackTrace(config, EnterpriseProfile(), 20000, 3);
  ASSERT_EQ(lt.trace.size(), lt.labels.size());

  std::unordered_set<uint64_t> attack_dsts;
  uint64_t attack_packets = 0;
  for (size_t i = 0; i < lt.trace.size(); ++i) {
    if (lt.labels[i] != 0) {
      ++attack_packets;
      attack_dsts.insert((static_cast<uint64_t>(lt.trace.packets()[i].tuple.dst_ip) << 16) |
                         lt.trace.packets()[i].tuple.dst_port);
    }
  }
  EXPECT_EQ(attack_packets, 5000u);
  EXPECT_GT(attack_dsts.size(), 1000u);  // Scan shape: many distinct targets.
  EXPECT_TRUE(lt.trace.IsTimeOrdered());
}

TEST(AttackGenTest, SsdpFloodConcentratesOnVictim) {
  AttackConfig config;
  config.type = AttackType::kSsdpFlood;
  config.attack_packets = 5000;
  const LabeledTrace lt = GenerateAttackTrace(config, EnterpriseProfile(), 10000, 4);
  std::unordered_set<uint32_t> victims;
  for (size_t i = 0; i < lt.trace.size(); ++i) {
    if (lt.labels[i] != 0) {
      victims.insert(lt.trace.packets()[i].tuple.dst_ip);
      EXPECT_EQ(lt.trace.packets()[i].tuple.src_port, 1900);
    }
  }
  EXPECT_EQ(victims.size(), 1u);  // Flood shape: single victim.
}

TEST(AttackGenTest, AttackStartsAfterPrefix) {
  AttackConfig config;
  config.type = AttackType::kSynDos;
  config.attack_packets = 1000;
  config.start_fraction = 0.5;
  const LabeledTrace lt = GenerateAttackTrace(config, EnterpriseProfile(), 10000, 5);
  uint64_t first_attack_ts = UINT64_MAX;
  uint64_t max_ts = 0;
  for (size_t i = 0; i < lt.trace.size(); ++i) {
    max_ts = std::max(max_ts, lt.trace.packets()[i].timestamp_ns);
    if (lt.labels[i] != 0) {
      first_attack_ts = std::min(first_attack_ts, lt.trace.packets()[i].timestamp_ns);
    }
  }
  EXPECT_GT(first_attack_ts, max_ts / 3);  // Clean training prefix exists.
}

TEST(AttackGenTest, WebsiteSessionsStableWithinSite) {
  const LabeledFlowSet set = GenerateWebsiteSessions(5, 4, 11);
  ASSERT_EQ(set.size(), 20u);
  // Sessions of the same site should have similar lengths; different sites
  // usually differ (template lengths are site-specific).
  std::vector<std::vector<size_t>> lengths(5);
  for (size_t i = 0; i < set.size(); ++i) {
    lengths[set.labels[i]].push_back(set.flows[i].size());
  }
  for (const auto& site : lengths) {
    ASSERT_EQ(site.size(), 4u);
    const double base = static_cast<double>(site[0]);
    for (size_t s = 1; s < site.size(); ++s) {
      EXPECT_NEAR(static_cast<double>(site[s]), base, base * 0.35);
    }
  }
}

TEST(AttackGenTest, CovertTimingBimodalGaps) {
  const LabeledFlowSet set = GenerateCovertTimingFlows(4, 200, 13);
  ASSERT_EQ(set.size(), 8u);
  for (size_t i = 0; i < set.size(); ++i) {
    if (set.labels[i] != 1) {
      continue;
    }
    // Covert flows: gaps cluster near 1 ms or 8 ms.
    int near_mode = 0;
    int total = 0;
    const auto& flow = set.flows[i];
    for (size_t k = 1; k < flow.size(); ++k) {
      const double gap_ms =
          static_cast<double>(flow[k].timestamp_ns - flow[k - 1].timestamp_ns) * 1e-6;
      ++total;
      if (std::abs(gap_ms - 1.0) < 0.3 || std::abs(gap_ms - 8.0) < 0.3) {
        ++near_mode;
      }
    }
    EXPECT_GT(near_mode, total * 9 / 10);
  }
}

TEST(PcapTest, RoundTrip) {
  const Trace original = GenerateTrace(EnterpriseProfile(), 2000, 21);
  const std::string path = ::testing::TempDir() + "/superfe_roundtrip.pcap";
  ASSERT_TRUE(WritePcap(path, original).ok());

  auto loaded = ReadPcap(path, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->packets()[i].tuple, original.packets()[i].tuple);
    EXPECT_EQ(loaded->packets()[i].timestamp_ns, original.packets()[i].timestamp_ns);
    EXPECT_EQ(loaded->packets()[i].wire_bytes, original.packets()[i].wire_bytes);
  }
  std::remove(path.c_str());
}

TEST(PcapTest, DirectionReconstructedFromFirstSeen) {
  Trace trace;
  PacketRecord p;
  p.tuple = {MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 5555, 80, kProtoTcp};
  p.wire_bytes = 80;
  p.timestamp_ns = 1000;
  p.direction = Direction::kForward;
  trace.Add(p);
  PacketRecord q = p;
  q.tuple = p.tuple.Reversed();
  q.timestamp_ns = 2000;
  q.direction = Direction::kBackward;
  trace.Add(q);

  const std::string path = ::testing::TempDir() + "/superfe_dir.pcap";
  ASSERT_TRUE(WritePcap(path, trace).ok());
  auto loaded = ReadPcap(path, nullptr);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->packets()[0].direction, Direction::kForward);
  EXPECT_EQ(loaded->packets()[1].direction, Direction::kBackward);
  std::remove(path.c_str());
}

TEST(PcapTest, MissingFileFails) {
  auto loaded = ReadPcap("/nonexistent/superfe.pcap", nullptr);
  EXPECT_FALSE(loaded.ok());
}

TEST(ReplayTest, PreservesPacketCountWithoutAmplification) {
  const Trace trace = GenerateTrace(EnterpriseProfile(), 3000, 31);
  VectorSink sink;
  const ReplayReport report = Replay(trace, ReplayOptions{}, sink);
  EXPECT_EQ(report.packets, trace.size());
  EXPECT_EQ(sink.packets.size(), trace.size());
}

TEST(ReplayTest, AmplificationCreatesDistinctFlows) {
  Trace trace;
  PacketRecord p;
  p.tuple = {MakeIp(10, 0, 0, 1), MakeIp(10, 0, 0, 2), 1111, 80, kProtoTcp};
  p.wire_bytes = 100;
  p.timestamp_ns = 0;
  trace.Add(p);

  VectorSink sink;
  ReplayOptions options;
  options.amplification = 4;
  const ReplayReport report = Replay(trace, options, sink);
  EXPECT_EQ(report.packets, 4u);
  std::unordered_set<uint32_t> src_ips;
  for (const auto& pkt : sink.packets) {
    src_ips.insert(pkt.tuple.src_ip);
  }
  EXPECT_EQ(src_ips.size(), 4u);
}

TEST(ReplayTest, SpeedupCompressesTime) {
  Trace trace;
  PacketRecord p;
  p.wire_bytes = 100;
  p.timestamp_ns = 0;
  trace.Add(p);
  p.timestamp_ns = 1000000000;
  trace.Add(p);

  VectorSink sink;
  ReplayOptions options;
  options.speedup = 10.0;
  Replay(trace, options, sink);
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[1].timestamp_ns - sink.packets[0].timestamp_ns, 100000000u);
}

TEST(LabeledTraceTest, SortKeepsLabelsAligned) {
  LabeledTrace lt;
  PacketRecord p;
  p.timestamp_ns = 100;
  p.wire_bytes = 1;
  lt.Add(p, 1);
  p.timestamp_ns = 50;
  p.wire_bytes = 2;
  lt.Add(p, 0);
  lt.SortByTime();
  ASSERT_EQ(lt.labels.size(), 2u);
  EXPECT_EQ(lt.labels[0], 0);
  EXPECT_EQ(lt.trace.packets()[0].wire_bytes, 2u);
  EXPECT_EQ(lt.labels[1], 1);
}

}  // namespace
}  // namespace superfe
