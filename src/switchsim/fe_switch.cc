#include "switchsim/fe_switch.h"

namespace superfe {

FeSwitchObs FeSwitchObs::Create(obs::MetricsRegistry* registry,
                                const obs::LabelSet& instance_labels) {
  FeSwitchObs o;
  if (registry == nullptr) {
    return o;
  }
  o.registry = registry;
  for (const auto& label : instance_labels) {
    o.block_name += "-" + label.first + "-" + label.second;
  }
  o.packets_seen = registry->GetCounter("superfe_switch_packets_seen_total", instance_labels,
                                        "Packets offered to the switch");
  o.packets_filtered =
      registry->GetCounter("superfe_switch_packets_filtered_total", instance_labels,
                           "Packets dropped by the policy filter");
  o.packets_batched =
      registry->GetCounter("superfe_switch_packets_batched_total", instance_labels,
                           "Packets that entered the MGPV cache");
  return o;
}

MgpvConfig FeSwitch::DefaultConfig(const CompiledPolicy& compiled) {
  MgpvConfig config;
  config.cg = compiled.switch_program.cg();
  config.fg = compiled.switch_program.fg();
  config.multi_granularity = compiled.switch_program.multi_granularity();
  config.metadata_bytes_per_cell = compiled.switch_program.MetadataBytesPerPacket();
  return config;
}

FeSwitch::FeSwitch(const CompiledPolicy& compiled, MgpvSink* sink)
    : FeSwitch(compiled, sink, DefaultConfig(compiled)) {}

FeSwitch::FeSwitch(const CompiledPolicy& compiled, MgpvSink* sink,
                   const MgpvConfig& mgpv_overrides)
    : program_(compiled.switch_program) {
  MgpvConfig config = mgpv_overrides;
  // Policy-derived fields always win over experiment overrides.
  config.cg = program_.cg();
  config.fg = program_.fg();
  config.multi_granularity = program_.multi_granularity();
  config.metadata_bytes_per_cell = program_.MetadataBytesPerPacket();
  cache_ = std::make_unique<MgpvCache>(config, sink);
}

void FeSwitch::set_obs(const FeSwitchObs& obs) {
  obs_ = obs;
  block_.Init(obs.registry, obs.block_name, obs.flush_packets);
  local_ = LocalObs{};
  local_.packets_seen = block_.BindCounter(obs.packets_seen);
  local_.packets_filtered = block_.BindCounter(obs.packets_filtered);
  local_.packets_batched = block_.BindCounter(obs.packets_batched);
}

void FeSwitch::OnPacket(const PacketRecord& pkt) {
  stats_.packets_seen++;
  obs::Inc(local_.packets_seen);
  if (!program_.filter.Matches(pkt)) {
    stats_.packets_filtered++;
    obs::Inc(local_.packets_filtered);
    block_.NotePacket();
    return;  // Still forwarded; just not batched for feature extraction.
  }
  stats_.packets_batched++;
  obs::Inc(local_.packets_batched);
  cache_->Insert(pkt);
  block_.NotePacket();
}

void FeSwitch::Flush() {
  cache_->Flush();
  block_.Flush();
}

}  // namespace superfe
