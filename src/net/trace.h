// Trace container: a time-ordered sequence of PacketRecords, optionally with
// per-packet labels (benign/attack) for detection experiments.
#ifndef SUPERFE_NET_TRACE_H_
#define SUPERFE_NET_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"

namespace superfe {

// Aggregate characteristics matching Table 2 in the paper.
struct TraceStats {
  uint64_t packet_count = 0;
  uint64_t flow_count = 0;  // Distinct canonical five-tuples.
  uint64_t total_bytes = 0;
  double avg_flow_length_pkts = 0.0;
  double avg_packet_size_bytes = 0.0;
  double duration_seconds = 0.0;
  double offered_gbps = 0.0;  // total_bytes over duration.

  std::string ToString() const;
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void Add(const PacketRecord& record) { packets_.push_back(record); }
  void Reserve(size_t n) { packets_.reserve(n); }

  const std::vector<PacketRecord>& packets() const { return packets_; }
  std::vector<PacketRecord>& mutable_packets() { return packets_; }
  size_t size() const { return packets_.size(); }
  bool empty() const { return packets_.empty(); }

  // Stable-sorts packets by timestamp. Generators interleave flows and call
  // this once at the end.
  void SortByTime();

  // True if packets are non-decreasing in timestamp.
  bool IsTimeOrdered() const;

  TraceStats ComputeStats() const;

 private:
  std::string name_;
  std::vector<PacketRecord> packets_;
};

// A trace plus per-packet binary labels (0 = benign, 1 = attack) used by the
// detection-accuracy experiments (Fig 11).
struct LabeledTrace {
  Trace trace;
  std::vector<uint8_t> labels;  // Parallel to trace.packets().

  // Sorts packets and labels together by timestamp.
  void SortByTime();

  void Add(const PacketRecord& record, uint8_t label) {
    trace.Add(record);
    labels.push_back(label);
  }
};

}  // namespace superfe

#endif  // SUPERFE_NET_TRACE_H_
