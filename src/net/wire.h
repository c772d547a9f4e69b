// Byte-level Ethernet/IPv4/TCP/UDP frame encoding and parsing.
//
// The pcap reader and the socket ingest source parse header fields from raw
// frames exactly like the FE-Switch's P4 parser would (§5); the trace
// generators therefore emit real frames, and the pcap reader/writer
// round-trips them.
#ifndef SUPERFE_NET_WIRE_H_
#define SUPERFE_NET_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "net/packet.h"

namespace superfe {

inline constexpr size_t kEthHeaderLen = 14;
inline constexpr size_t kIpv4MinHeaderLen = 20;
inline constexpr size_t kTcpMinHeaderLen = 20;
inline constexpr size_t kUdpHeaderLen = 8;
inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr size_t kMinFrameLen = 60;  // Without FCS.

// Encodes a PacketRecord into a wire frame of record.wire_bytes bytes
// (padded with zeros, truncated payload). Checksums are computed so parsers
// that verify them accept the frame.
std::vector<uint8_t> EncodeFrame(const PacketRecord& record);

// Parses a frame back into a PacketRecord. Fields not present on the wire
// (timestamp, direction) are left defaulted; the caller fills them from
// capture metadata. Fails on truncated or non-IPv4 frames.
Result<PacketRecord> ParseFrame(const uint8_t* data, size_t length);

// Computes the RFC 1071 ones'-complement checksum over a byte range.
uint16_t InternetChecksum(const uint8_t* data, size_t length, uint32_t initial = 0);

}  // namespace superfe

#endif  // SUPERFE_NET_WIRE_H_
