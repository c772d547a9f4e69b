#include "core/software_extractor.h"

#include <chrono>

namespace superfe {

Result<std::unique_ptr<SoftwareExtractor>> SoftwareExtractor::Create(
    const CompiledPolicy& compiled, const ExecOptions& options) {
  auto plan = ExecPlan::FromProgram(compiled.nic_program);
  if (!plan.ok()) {
    return plan.status();
  }
  return std::unique_ptr<SoftwareExtractor>(
      new SoftwareExtractor(compiled, std::move(plan).value(), options));
}

SoftwareExtractor::SoftwareExtractor(const CompiledPolicy& compiled, ExecPlan plan,
                                     const ExecOptions& options)
    : compiled_(compiled), plan_(std::move(plan)), options_(options) {
  packet_.cells.resize(1);
  for (size_t i = 0; i < compiled_.nic_program.granularities.size(); ++i) {
    tables_.push_back(std::make_unique<GroupTable<GroupState>>(65536, 8));
  }
}

void SoftwareExtractor::ProcessPacket(const PacketRecord& pkt, FeatureSink* sink) {
  if (!compiled_.switch_program.filter.Matches(pkt)) {
    return;
  }
  // Software path sees the raw packet; build the equivalent cell and run it
  // as a one-row batch.
  MgpvCell& cell = packet_.cells[0];
  cell.size = static_cast<uint16_t>(std::min<uint32_t>(pkt.wire_bytes, 0xffff));
  cell.tstamp = static_cast<uint32_t>(pkt.timestamp_ns);
  cell.direction = pkt.direction;
  cell.full_timestamp_ns = pkt.timestamp_ns;
  cell.fg_key = InitiatorKey::Of(pkt);
  batch_.Assemble(&packet_, 1);

  const auto& grans = compiled_.nic_program.granularities;
  std::array<const GroupState*, 4> touched{};
  for (size_t gi = 0; gi < grans.size(); ++gi) {
    bool via_dram = false;
    GroupState& group = tables_[gi]->FindOrCreate(
        GroupKey::Of(cell.fg_key, grans[gi]), cell.fg_key.Hash(grans[gi]),
        [&] { return GroupState::Make(plan_, gi, options_); }, via_dram);
    UpdateGroupBatch(plan_, gi, group, batch_, 0, 1);
    touched[gi] = &group;
  }

  if (compiled_.nic_program.collect.per_packet && sink != nullptr) {
    ++vectors_;
    sink->OnFeatureVector(AssembleVector(plan_, tables_, touched, cell.fg_key,
                                         GroupKey::Of(cell.fg_key, compiled_.switch_program.fg()),
                                         pkt.timestamp_ns));
  }
}

void SoftwareExtractor::Flush(FeatureSink* sink) {
  if (!compiled_.nic_program.collect.per_packet && sink != nullptr) {
    const Granularity unit = compiled_.nic_program.collect.unit;
    const auto& grans = compiled_.nic_program.granularities;
    for (size_t gi = 0; gi < grans.size(); ++gi) {
      if (grans[gi] != unit) {
        continue;
      }
      tables_[gi]->ForEach([&](const GroupKey& key, GroupState& group) {
        std::array<const GroupState*, 4> groups{};
        groups[gi] = &group;
        ++vectors_;
        sink->OnFeatureVector(
            AssembleVector(plan_, tables_, groups, group.last_fg_key, key, group.last_seen_ns));
      });
    }
  }
  for (auto& table : tables_) {
    table->Clear();
  }
}

SoftwareRunReport SoftwareExtractor::Run(const Trace& trace, FeatureSink* sink,
                                         const SoftwareDeployment& deployment) {
  SoftwareRunReport report;
  vectors_ = 0;

  const auto start = std::chrono::steady_clock::now();
  for (const auto& pkt : trace.packets()) {
    ProcessPacket(pkt, sink);
  }
  Flush(sink);
  const auto end = std::chrono::steady_clock::now();

  report.packets = trace.size();
  report.vectors = vectors_;
  report.measured_seconds = std::chrono::duration<double>(end - start).count();
  if (report.packets > 0 && report.measured_seconds > 0.0) {
    report.measured_ns_per_packet = report.measured_seconds * 1e9 / report.packets;
  }

  const double avg_bytes =
      trace.empty() ? 0.0
                    : static_cast<double>(trace.ComputeStats().total_bytes) / trace.size();
  const double eff_cores = deployment.cores * deployment.parallel_efficiency;

  const double cpp_ns = report.measured_ns_per_packet;
  if (cpp_ns > 0.0) {
    report.cpp_pps = eff_cores * 1e9 / (cpp_ns + deployment.capture_ns_per_packet);
    report.cpp_gbps = report.cpp_pps * avg_bytes * 8.0 * 1e-9;

    const double original_ns = cpp_ns * deployment.interpreter_factor;
    report.deployed_pps = eff_cores * 1e9 / (original_ns + deployment.capture_ns_per_packet);
    report.deployed_gbps = report.deployed_pps * avg_bytes * 8.0 * 1e-9;
  }
  return report;
}

}  // namespace superfe
