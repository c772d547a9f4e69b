// Synthetic workload trace generation.
//
// The paper evaluates on three captures (Table 2): MAWI-IXP (IX link),
// ENTERPRISE (cloud gateway) and CAMPUS (department core router). Those
// captures are not redistributable, so we synthesize seeded traces whose
// flow-length and packet-size distributions match the published aggregate
// characteristics; bench_table2_traces verifies the match.
#ifndef SUPERFE_NET_TRACE_GEN_H_
#define SUPERFE_NET_TRACE_GEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/trace.h"

namespace superfe {

// Distributional description of a workload.
struct TraceProfile {
  std::string name;

  // Flow length ~ max(1, round(LogNormal(mu, sigma))) with mu derived from
  // the target mean. sigma controls tail heaviness (IX links are heaviest).
  double mean_flow_length_pkts = 10.0;
  double flow_length_sigma = 1.0;

  // Packet size mixture: (frame bytes, weight). Calibrated so the
  // *generated* mean (including minimum-size TCP handshake packets) hits
  // the Table 2 target below.
  std::vector<std::pair<uint16_t, double>> size_mix;

  // Table 2 target for the generated mean packet size.
  double target_mean_packet_size = 0.0;

  // Fraction of TCP flows (rest UDP).
  double tcp_fraction = 0.9;

  // Mean intra-flow inter-packet gap.
  double mean_ipt_us = 1000.0;

  // Trace duration over which flow start times are spread.
  double duration_s = 1.0;

  // Address pool sizes; destinations are Zipf-popular (realistic hot servers,
  // which matters for host/channel-granularity grouping).
  uint32_t src_pool = 20000;
  uint32_t dst_pool = 5000;
  double dst_zipf_s = 1.1;
};

// The three paper workloads (Table 2 targets in comments).
TraceProfile MawiIxpProfile();     // 104 pkts/flow, 1246 B/pkt.
TraceProfile EnterpriseProfile();  //   9.2 pkts/flow, 739 B/pkt.
TraceProfile CampusProfile();      //  58 pkts/flow, 135 B/pkt.

// All three, in paper order.
std::vector<TraceProfile> PaperProfiles();

// Generates a trace with approximately `target_packets` packets (complete
// flows are kept, so the count can overshoot by one flow length).
Trace GenerateTrace(const TraceProfile& profile, size_t target_packets, uint64_t seed);

// Generates a single bidirectional flow of `length` packets starting at
// `start_ns`; the initiator owns `tuple` and forward packets carry it as-is.
std::vector<PacketRecord> GenerateFlow(const FiveTuple& tuple, size_t length, uint64_t start_ns,
                                       double mean_ipt_us,
                                       const std::vector<std::pair<uint16_t, double>>& size_mix,
                                       double forward_fraction, Rng& rng);

// Derives a locally-administered MAC address from an IP (generators give
// every host a stable MAC; Kitsune's SrcMAC-IP granularity uses it).
uint64_t MacForIp(uint32_t ip);

// Draws a flow length from the profile's distribution.
size_t DrawFlowLength(const TraceProfile& profile, Rng& rng);

// Draws a frame size from a size mixture.
uint16_t DrawPacketSize(const std::vector<std::pair<uint16_t, double>>& size_mix, Rng& rng);

}  // namespace superfe

#endif  // SUPERFE_NET_TRACE_GEN_H_
