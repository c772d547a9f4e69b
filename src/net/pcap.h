// Minimal libpcap-format reader/writer (nanosecond variant, magic
// 0xa1b23c4d). Lets users exchange traces with standard tooling; frames are
// encoded/decoded with net/wire.
#ifndef SUPERFE_NET_PCAP_H_
#define SUPERFE_NET_PCAP_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/trace.h"

namespace superfe {

// Writes `trace` to `path` as a nanosecond-resolution pcap file.
Status WritePcap(const std::string& path, const Trace& trace);

// Reader-side robustness accounting: what a damaged capture cost us.
struct PcapReadStats {
  uint64_t records = 0;            // Record headers read (incl. bad ones).
  uint64_t frames_decoded = 0;     // Parsed into PacketRecords.
  uint64_t frames_skipped = 0;     // Well-formed but non-IPv4/undecodable.
  uint64_t truncated_records = 0;  // Cut off at EOF (header or body).
  uint64_t corrupt_records = 0;    // Bad lengths (oversized, orig < cap).
};

// Reads a pcap file (both microsecond 0xa1b2c3d4 and nanosecond 0xa1b23c4d
// magics, either byte order). Non-IPv4 frames are skipped. Direction is
// reconstructed per flow: the first-seen orientation is kForward.
//
// Damage tolerance: a record cut off by EOF (truncated header or body) ends
// the read — the intact prefix is returned and counted in
// stats->truncated_records. A record whose cap_len exceeds the snaplen
// bound is unrecoverable (the stream cannot be resynced) and fails with
// InvalidArgument after counting it corrupt. orig_len < cap_len is repaired
// (wire bytes clamped to cap_len) and counted corrupt but keeps the record.
Result<Trace> ReadPcap(const std::string& path, PcapReadStats* stats);

}  // namespace superfe

#endif  // SUPERFE_NET_PCAP_H_
