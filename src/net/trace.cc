#include "net/trace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_set>

namespace superfe {

std::string TraceStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "pkts=%llu flows=%llu avg_flow_len=%.1f avg_pkt_size=%.0fB dur=%.2fs %.2fGbps",
                (unsigned long long)packet_count, (unsigned long long)flow_count,
                avg_flow_length_pkts, avg_packet_size_bytes, duration_seconds, offered_gbps);
  return buf;
}

void Trace::SortByTime() {
  std::stable_sort(packets_.begin(), packets_.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.timestamp_ns < b.timestamp_ns;
                   });
}

bool Trace::IsTimeOrdered() const {
  for (size_t i = 1; i < packets_.size(); ++i) {
    if (packets_[i].timestamp_ns < packets_[i - 1].timestamp_ns) {
      return false;
    }
  }
  return true;
}

TraceStats Trace::ComputeStats() const {
  TraceStats stats;
  stats.packet_count = packets_.size();
  if (packets_.empty()) {
    return stats;
  }
  std::unordered_set<FiveTuple, FiveTupleHash> flows;
  uint64_t min_ts = UINT64_MAX;
  uint64_t max_ts = 0;
  for (const auto& p : packets_) {
    flows.insert(p.FlowKey());
    stats.total_bytes += p.wire_bytes;
    min_ts = std::min(min_ts, p.timestamp_ns);
    max_ts = std::max(max_ts, p.timestamp_ns);
  }
  stats.flow_count = flows.size();
  stats.avg_flow_length_pkts =
      static_cast<double>(stats.packet_count) / static_cast<double>(stats.flow_count);
  stats.avg_packet_size_bytes =
      static_cast<double>(stats.total_bytes) / static_cast<double>(stats.packet_count);
  stats.duration_seconds = static_cast<double>(max_ts - min_ts) * 1e-9;
  if (stats.duration_seconds > 0.0) {
    stats.offered_gbps =
        static_cast<double>(stats.total_bytes) * 8.0 / stats.duration_seconds * 1e-9;
  }
  return stats;
}

void LabeledTrace::SortByTime() {
  std::vector<size_t> order(trace.size());
  std::iota(order.begin(), order.end(), 0);
  const auto& pkts = trace.packets();
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pkts[a].timestamp_ns < pkts[b].timestamp_ns;
  });
  std::vector<PacketRecord> sorted_pkts;
  std::vector<uint8_t> sorted_labels;
  sorted_pkts.reserve(pkts.size());
  sorted_labels.reserve(labels.size());
  for (size_t idx : order) {
    sorted_pkts.push_back(pkts[idx]);
    sorted_labels.push_back(labels[idx]);
  }
  trace.mutable_packets() = std::move(sorted_pkts);
  labels = std::move(sorted_labels);
}

}  // namespace superfe
