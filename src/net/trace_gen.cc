#include "net/trace_gen.h"

#include <cassert>
#include <cmath>

namespace superfe {

TraceProfile MawiIxpProfile() {
  TraceProfile p;
  p.name = "MAWI-IXP";
  p.mean_flow_length_pkts = 104.0;
  p.flow_length_sigma = 1.8;  // IX links have the heaviest tails.
  p.size_mix = {{1514, 0.81}, {576, 0.045}, {64, 0.145}};
  p.target_mean_packet_size = 1246.0;
  p.tcp_fraction = 0.88;
  p.mean_ipt_us = 400.0;
  p.duration_s = 1.0;
  p.src_pool = 50000;
  p.dst_pool = 20000;
  p.dst_zipf_s = 1.05;
  return p;
}

TraceProfile EnterpriseProfile() {
  TraceProfile p;
  p.name = "ENTERPRISE";
  p.mean_flow_length_pkts = 9.2;
  p.flow_length_sigma = 1.1;
  // Mix mean ~819 B; handshake minimum-size packets (1 in 9.2) pull the
  // generated mean down to the 739 B target.
  p.size_mix = {{1514, 0.49}, {512, 0.10}, {64, 0.41}};
  p.target_mean_packet_size = 739.0;
  p.tcp_fraction = 0.93;
  p.mean_ipt_us = 2000.0;
  p.duration_s = 1.0;
  p.src_pool = 8000;
  p.dst_pool = 2000;
  p.dst_zipf_s = 1.2;
  return p;
}

TraceProfile CampusProfile() {
  TraceProfile p;
  p.name = "CAMPUS";
  p.mean_flow_length_pkts = 58.0;
  p.flow_length_sigma = 1.5;
  p.size_mix = {{64, 0.58}, {128, 0.22}, {352, 0.20}};
  p.target_mean_packet_size = 135.0;
  p.tcp_fraction = 0.70;  // Lots of small UDP (DNS, RTP) on campus links.
  p.mean_ipt_us = 5000.0;
  p.duration_s = 1.0;
  p.src_pool = 4000;
  p.dst_pool = 3000;
  p.dst_zipf_s = 1.15;
  return p;
}

std::vector<TraceProfile> PaperProfiles() {
  return {MawiIxpProfile(), EnterpriseProfile(), CampusProfile()};
}

uint64_t MacForIp(uint32_t ip) {
  // 0x02 prefix = locally administered unicast.
  return (0x02ull << 40) | ip;
}

size_t DrawFlowLength(const TraceProfile& profile, Rng& rng) {
  const double sigma = profile.flow_length_sigma;
  const double mu = std::log(profile.mean_flow_length_pkts) - sigma * sigma / 2.0;
  const double raw = rng.LogNormal(mu, sigma);
  if (raw < 1.0) {
    return 1;
  }
  return static_cast<size_t>(raw + 0.5);
}

uint16_t DrawPacketSize(const std::vector<std::pair<uint16_t, double>>& size_mix, Rng& rng) {
  assert(!size_mix.empty());
  std::vector<double> weights;
  weights.reserve(size_mix.size());
  for (const auto& [size, weight] : size_mix) {
    weights.push_back(weight);
  }
  return size_mix[rng.WeightedIndex(weights)].first;
}

std::vector<PacketRecord> GenerateFlow(const FiveTuple& tuple, size_t length, uint64_t start_ns,
                                       double mean_ipt_us,
                                       const std::vector<std::pair<uint16_t, double>>& size_mix,
                                       double forward_fraction, Rng& rng) {
  std::vector<PacketRecord> packets;
  packets.reserve(length);
  uint64_t ts = start_ns;
  for (size_t i = 0; i < length; ++i) {
    PacketRecord pkt;
    pkt.timestamp_ns = ts;
    const bool forward = i == 0 || rng.Bernoulli(forward_fraction);
    pkt.direction = forward ? Direction::kForward : Direction::kBackward;
    pkt.tuple = forward ? tuple : tuple.Reversed();
    pkt.wire_bytes = DrawPacketSize(size_mix, rng);
    pkt.src_mac = MacForIp(pkt.tuple.src_ip);
    pkt.dst_mac = MacForIp(pkt.tuple.dst_ip);
    if (tuple.protocol == kProtoTcp) {
      if (i == 0) {
        pkt.tcp_flags = kTcpSyn;
        pkt.wire_bytes = 64;  // Handshake packets are minimum-size.
      } else if (i + 1 == length && length > 2) {
        pkt.tcp_flags = kTcpFin | kTcpAck;
      } else {
        pkt.tcp_flags = rng.Bernoulli(0.5) ? (kTcpPsh | kTcpAck) : kTcpAck;
      }
    }
    packets.push_back(pkt);
    const double gap_us = rng.Exponential(1.0 / mean_ipt_us);
    ts += static_cast<uint64_t>(gap_us * 1000.0) + 1;
  }
  return packets;
}

Trace GenerateTrace(const TraceProfile& profile, size_t target_packets, uint64_t seed) {
  Rng rng(seed);
  Trace trace(profile.name);
  trace.Reserve(target_packets + profile.mean_flow_length_pkts * 4);

  const uint64_t duration_ns = static_cast<uint64_t>(profile.duration_s * 1e9);
  // Ephemeral ports start above the well-known range.
  const std::vector<uint16_t> service_ports = {80, 443, 53, 22, 25, 8080, 3306, 123};

  size_t generated = 0;
  while (generated < target_packets) {
    FiveTuple tuple;
    tuple.src_ip = MakeIp(10, 0, 0, 0) + rng.NextU32() % profile.src_pool;
    tuple.dst_ip =
        MakeIp(172, 16, 0, 0) + static_cast<uint32_t>(rng.Zipf(profile.dst_pool, profile.dst_zipf_s)) - 1;
    tuple.src_port = static_cast<uint16_t>(1024 + rng.UniformU64(64512));
    tuple.dst_port = service_ports[rng.UniformU64(service_ports.size())];
    tuple.protocol = rng.Bernoulli(profile.tcp_fraction) ? kProtoTcp : kProtoUdp;

    const size_t length = DrawFlowLength(profile, rng);
    const uint64_t start_ns = rng.UniformU64(duration_ns);
    auto flow =
        GenerateFlow(tuple, length, start_ns, profile.mean_ipt_us, profile.size_mix, 0.6, rng);
    for (const auto& pkt : flow) {
      trace.Add(pkt);
    }
    generated += flow.size();
  }
  trace.SortByTime();
  return trace;
}

}  // namespace superfe
