// Switch -> NIC message formats: evicted MGPV batches and FG-key-table
// synchronization updates (§5).
#ifndef SUPERFE_SWITCHSIM_EVICT_H_
#define SUPERFE_SWITCHSIM_EVICT_H_

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "switchsim/group_key.h"

namespace superfe {

// One MGPV cell: the batched feature metadata of a single packet. The wire
// layout is the compiled policy's metadata layout (2-byte size, 4-byte
// truncated timestamp, 1-byte direction, 2-byte FG index as applicable);
// `full_timestamp_ns` and `fg_key` are simulator shadow fields used to run
// the NIC pipeline bit-exactly — they are never counted as transferred
// bytes.
struct MgpvCell {
  uint16_t size = 0;
  uint32_t tstamp = 0;  // Truncated 32-bit ns, as batched on the wire.
  Direction direction = Direction::kForward;
  uint16_t fg_index = 0;

  uint64_t full_timestamp_ns = 0;  // Shadow.
  InitiatorKey fg_key;             // Shadow: the packed initiator key.
};
static_assert(sizeof(MgpvCell) == 40, "cells are copied per report; keep them compact");

enum class EvictReason : uint8_t {
  kCollision,  // Hash collision with a different group (most common; ~LRU).
  kShortFull,  // Short buffer filled and no long buffer available.
  kLongFull,   // Long buffer filled; short+long evicted together.
  kAging,      // Recirculation scan found the entry idle for > T.
  kFlush,      // End-of-run drain.
};

const char* EvictReasonName(EvictReason reason);

// One evicted MGPV: a CG group key, the switch hash, and the batched cells.
// Every cell's FG key has `cg_key` as its prefix, so the NIC takes the CG
// group's key and hash from the report instead of deriving them.
struct MgpvReport {
  GroupKey cg_key;
  uint32_t hash = 0;  // Switch-computed; reused by the NIC (§6.2).
  EvictReason reason = EvictReason::kCollision;
  std::vector<MgpvCell> cells;

  // Trace-time latency stamps (simulator shadow, not wire bytes): when the
  // batch's first packet entered the MGPV slot and when the batch was
  // evicted. Downstream stages subtract these from the TraceClock to get
  // queue wait and end-to-end ingest->emit delay.
  uint64_t first_ingest_ns = 0;
  uint64_t evict_ns = 0;

  // Bytes on the switch->NIC wire: report header (key + hash + count) plus
  // `metadata_bytes_per_cell` per cell.
  uint32_t WireBytes(uint32_t metadata_bytes_per_cell) const {
    return 2 + cg_key.length + 4 + 2 +
           static_cast<uint32_t>(cells.size()) * metadata_bytes_per_cell;
  }
};

// FG-key-table synchronization message (switch keeps the NIC's copy of the
// table up to date whenever a slot is written, §5.1).
struct FgSyncMessage {
  uint16_t index = 0;
  InitiatorKey key;

  static constexpr uint32_t kWireBytes = 2 + 13;
};

// Consumer of switch output (FE-NIC implements this).
class MgpvSink {
 public:
  virtual ~MgpvSink() = default;
  virtual void OnMgpv(const MgpvReport& report) = 0;
  virtual void OnFgSync(const FgSyncMessage& sync) = 0;
};

}  // namespace superfe

#endif  // SUPERFE_SWITCHSIM_EVICT_H_
