#include "switchsim/sharded_fe_switch.h"

#include <string>

namespace superfe {

ShardedFeSwitch::ShardedFeSwitch(const CompiledPolicy& compiled,
                                 const std::vector<MgpvSink*>& shard_sinks,
                                 const MgpvConfig& mgpv_overrides,
                                 const ShardedSwitchOptions& options)
    : cg_(compiled.switch_program.cg()) {
  shards_.reserve(shard_sinks.size());
  for (size_t s = 0; s < shard_sinks.size(); ++s) {
    auto sw = std::make_unique<FeSwitch>(compiled, shard_sinks[s], mgpv_overrides);
    // One shard is the serial shape: it registers the unlabeled names.
    const obs::LabelSet shard_label =
        shard_sinks.size() > 1 ? obs::LabelSet{{"shard", std::to_string(s)}} : obs::LabelSet{};
    FeSwitchObs sw_obs = FeSwitchObs::Create(options.metrics, shard_label);
    sw_obs.flush_packets = options.obs_batch_packets;
    sw->set_obs(sw_obs);
    MgpvObs mgpv_obs = MgpvObs::Create(options.metrics, options.trace,
                                       options.trace_lane_base + static_cast<uint32_t>(s),
                                       options.latency, shard_label, options.profile);
    mgpv_obs.flush_packets = options.obs_batch_packets;
    sw->set_mgpv_obs(mgpv_obs);
    if (options.injector != nullptr) {
      sw->mutable_cache().set_fault(options.injector, static_cast<uint32_t>(s));
    }
    shards_.push_back(std::move(sw));
  }
}

uint32_t ShardedFeSwitch::ShardOf(const PacketRecord& pkt) const {
  if (shards_.size() == 1) {
    return 0;
  }
  return InitiatorKey::Of(pkt).Hash(cg_) % static_cast<uint32_t>(shards_.size());
}

std::vector<PacketSink*> ShardedFeSwitch::PacketSinks() {
  std::vector<PacketSink*> sinks;
  sinks.reserve(shards_.size());
  for (auto& shard : shards_) {
    sinks.push_back(shard.get());
  }
  return sinks;
}

void ShardedFeSwitch::Flush() {
  for (auto& shard : shards_) {
    shard->Flush();
  }
}

std::vector<MgpvEpochInfo> ShardedFeSwitch::RotateEpochs() {
  std::vector<MgpvEpochInfo> infos;
  infos.reserve(shards_.size());
  for (auto& shard : shards_) {
    infos.push_back(shard->RotateMgpvEpoch());
  }
  return infos;
}

FeSwitchStats ShardedFeSwitch::AggregateSwitchStats() const {
  FeSwitchStats total;
  for (const auto& shard : shards_) {
    const FeSwitchStats& s = shard->stats();
    total.packets_seen += s.packets_seen;
    total.packets_filtered += s.packets_filtered;
    total.packets_batched += s.packets_batched;
  }
  return total;
}

MgpvStats ShardedFeSwitch::AggregateMgpvStats() const {
  MgpvStats total;
  for (const auto& shard : shards_) {
    const MgpvStats& s = shard->cache().stats();
    total.packets_in += s.packets_in;
    total.bytes_in += s.bytes_in;
    total.reports_out += s.reports_out;
    total.cells_out += s.cells_out;
    total.bytes_out += s.bytes_out;
    total.fg_syncs += s.fg_syncs;
    total.fg_collisions += s.fg_collisions;
    for (int i = 0; i < 5; ++i) {
      total.evictions[i] += s.evictions[i];
    }
    total.long_allocs += s.long_allocs;
    total.long_alloc_failures += s.long_alloc_failures;
    total.pressure_evictions += s.pressure_evictions;
    total.injected_pool_failures += s.injected_pool_failures;
  }
  return total;
}

}  // namespace superfe
