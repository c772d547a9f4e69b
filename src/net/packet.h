// Packet abstractions shared by the trace generators, the switch simulator
// and the software baseline.
//
// SuperFE abstracts each packet as a key-value tuple (§4.1): header fields
// (addresses, ports, protocol) plus switch-filled metadata (size, timestamp,
// direction). PacketRecord is that tuple in struct form.
#ifndef SUPERFE_NET_PACKET_H_
#define SUPERFE_NET_PACKET_H_

#include <cstdint>

#include "net/five_tuple.h"

namespace superfe {

// Direction of a packet relative to the monitored vantage point. For a flow,
// the initiator's packets are kForward.
enum class Direction : uint8_t {
  kForward = 0,
  kBackward = 1,
};

// TCP flag bits (subset used by analyses and generators).
inline constexpr uint8_t kTcpFin = 0x01;
inline constexpr uint8_t kTcpSyn = 0x02;
inline constexpr uint8_t kTcpRst = 0x04;
inline constexpr uint8_t kTcpPsh = 0x08;
inline constexpr uint8_t kTcpAck = 0x10;

struct PacketRecord {
  uint64_t timestamp_ns = 0;
  FiveTuple tuple;
  uint32_t wire_bytes = 0;  // Full frame length on the wire.
  Direction direction = Direction::kForward;
  uint8_t tcp_flags = 0;
  uint64_t src_mac = 0;  // Lower 48 bits significant.
  uint64_t dst_mac = 0;

  // The five-tuple as sent by the flow initiator (forward packets already
  // are; backward packets are reversed back). GroupKey derives every
  // granularity's key from this orientation (switchsim/group_key.h).
  FiveTuple InitiatorTuple() const {
    return direction == Direction::kForward ? tuple : tuple.Reversed();
  }

  // Orientation-free flow identity (trace statistics count distinct flows).
  FiveTuple FlowKey() const { return tuple.Canonical(); }

  // Signed direction factor: +1 forward, -1 backward (used by f_direction).
  int DirectionSign() const { return direction == Direction::kForward ? 1 : -1; }
};

}  // namespace superfe

#endif  // SUPERFE_NET_PACKET_H_
