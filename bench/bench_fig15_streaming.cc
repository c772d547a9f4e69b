// Fig 15: FE-NIC memory consumption and feature-computation cost with
// streaming algorithms vs the naive (buffer-everything, two-pass) approach,
// as traffic volume grows.
//
// Streaming state is O(1) per group; the naive extractor's buffers grow
// linearly with traffic and its per-emission recomputation grows with the
// buffered length — exceeding NIC memory long before the trace ends.
#include <cstdio>
#include <unordered_map>

#include "apps/policies.h"
#include "common/table.h"
#include "net/trace_gen.h"
#include "nicsim/fe_nic.h"
#include "policy/compile.h"
#include "streaming/naive.h"
#include "switchsim/fe_switch.h"

namespace superfe {
namespace {

void Run() {
  std::printf("== Fig 15: streaming vs naive feature computation on the NIC ==\n\n");

  auto app = AppPolicyByName("Kitsune");
  auto compiled = Compile(app->policy);
  const uint32_t streaming_state = compiled->nic_program.StateBytesPerGroup();

  // Long-lived flows (the IoT/enterprise monitoring regime Kitsune targets):
  // a bounded set of concurrent conversations observed for a long time. The
  // naive two-pass extractor must buffer each group's entire history, so its
  // memory grows with *traffic*, while streaming state is fixed per group.
  TraceProfile profile = MawiIxpProfile();
  profile.mean_flow_length_pkts = 400.0;
  profile.flow_length_sigma = 0.4;
  profile.src_pool = 1200;
  profile.dst_pool = 400;
  const Trace trace = GenerateTrace(profile, 400000, 0xf15);

  // Naive baseline: per-socket buffered samples of (size, ipt) per window —
  // the two-pass version of the same 115 features.
  std::unordered_map<FiveTuple, NaiveStats, FiveTupleHash> naive_sizes;
  std::unordered_map<FiveTuple, NaiveStats, FiveTupleHash> naive_times;

  // Streaming: the real FE-NIC over the MGPV stream.
  class NullSink : public FeatureSink {
   public:
    void OnFeatureVector(FeatureVector&&) override {}
  };
  NullSink sink;
  auto nic = std::move(FeNic::Create(*compiled, FeNicConfig{}, &sink)).value();
  FeSwitch fe(*compiled, nic.get());

  AsciiTable table({"Packets", "Streaming memory", "Naive memory", "Streaming cycles/pkt",
                    "Naive cycles/pkt"});
  const CycleCosts costs;
  size_t count = 0;
  uint64_t naive_recompute_samples = 0;
  // The table's last row, which the closing verdict reads.
  size_t last_row_packets = 0;
  double last_naive_mb = 0.0;
  double last_streaming_cycles = 0.0;
  double last_naive_cycles = 0.0;
  for (const auto& pkt : trace.packets()) {
    fe.OnPacket(pkt);
    const FiveTuple key = pkt.InitiatorTuple();
    auto& sizes = naive_sizes[key];
    auto& times = naive_times[key];
    sizes.Add(pkt.wire_bytes);
    times.Add(static_cast<double>(pkt.timestamp_ns));
    // Per-packet feature emission (Kitsune collects per packet): the naive
    // approach re-runs two passes over everything buffered for this group.
    naive_recompute_samples += 2 * sizes.count();

    if (++count % 100000 == 0) {
      uint64_t streaming_bytes = 0;
      const auto group_counts = nic->GroupCounts();
      const auto& grans = compiled->nic_program.granularities;
      for (size_t gi = 0; gi < group_counts.size() && gi < grans.size(); ++gi) {
        // Approximate: states are split evenly across the chain.
        streaming_bytes += group_counts[gi] * (streaming_state / grans.size());
      }
      uint64_t naive_bytes = 0;
      for (const auto& [k, stats] : naive_sizes) {
        naive_bytes += stats.MemoryBytes();
      }
      for (const auto& [k, stats] : naive_times) {
        naive_bytes += stats.MemoryBytes();
      }
      const double streaming_cycles =
          static_cast<double>(nic->perf().EffectiveCycles()) / std::max<uint64_t>(
              nic->perf().cells(), 1);
      // Naive per-packet cost: two passes over the group's buffered history
      // at each (per-packet) emission, ~3 ALU ops per buffered sample, plus
      // the same dispatch overhead the streaming path pays.
      const double naive_cycles =
          static_cast<double>(naive_recompute_samples) * costs.alu * 3.0 / count +
          costs.dispatch;
      last_row_packets = count;
      last_naive_mb = naive_bytes / 1048576.0;
      last_streaming_cycles = streaming_cycles;
      last_naive_cycles = naive_cycles;
      table.AddRow({std::to_string(count),
                    AsciiTable::Num(streaming_bytes / 1048576.0, 2) + " MB",
                    AsciiTable::Num(naive_bytes / 1048576.0, 2) + " MB",
                    AsciiTable::Num(streaming_cycles, 0),
                    AsciiTable::Num(naive_cycles, 0)});
    }
  }
  table.Print();

  constexpr double kOnChipMb = 7.3;
  std::printf(
      "\nOn-chip SRAM across the NFP hierarchy is ~7.3 MB. The naive buffers grow linearly\n"
      "with traffic and reach %.2f MB at %llu packets, %s that budget.\n"
      "Streaming state is fixed per group (%u B) and its per-packet cost stays constant;\n"
      "naive per-packet cycles grow with the buffered history (%.0f at the last row,\n"
      "against streaming's %.0f).\n",
      last_naive_mb, static_cast<unsigned long long>(last_row_packets),
      last_naive_mb < kOnChipMb ? "still below" : "past", streaming_state, last_naive_cycles,
      last_streaming_cycles);
}

}  // namespace
}  // namespace superfe

int main() {
  superfe::Run();
  return 0;
}
