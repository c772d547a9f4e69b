// FE-Switch: the switch side of SuperFE (§5). Wires the compiled policy's
// filter (match-action table) in front of the MGPV batching cache and
// preserves baseline forwarding semantics (packets are counted as forwarded
// regardless of feature extraction).
#ifndef SUPERFE_SWITCHSIM_FE_SWITCH_H_
#define SUPERFE_SWITCHSIM_FE_SWITCH_H_

#include <memory>

#include "net/replay.h"
#include "policy/compile.h"
#include "switchsim/mgpv.h"

namespace superfe {

struct FeSwitchStats {
  uint64_t packets_seen = 0;      // All traffic (still forwarded).
  uint64_t packets_filtered = 0;  // Dropped by the policy filter.
  uint64_t packets_batched = 0;   // Entered the MGPV cache.
};

// Nullable observability handles mirroring FeSwitchStats (superfe_switch_*).
// `instance_labels` distinguishes multiple pipes (e.g. {shard="<i>"} per
// ShardedFeSwitch shard); the labeled children of a family sum to exactly
// the totals an unlabeled single-switch run records.
struct FeSwitchObs {
  obs::Counter* packets_seen = nullptr;
  obs::Counter* packets_filtered = nullptr;
  obs::Counter* packets_batched = nullptr;

  // Cold-tier identity for the switch's WorkerObsBlock (see MgpvObs).
  obs::MetricsRegistry* registry = nullptr;
  std::string block_name = "switch";
  uint32_t flush_packets = 4096;

  static FeSwitchObs Create(obs::MetricsRegistry* registry,
                            const obs::LabelSet& instance_labels);
};

class FeSwitch : public PacketSink {
 public:
  // `mgpv_overrides` lets experiments change cache geometry / aging while
  // keeping the policy-derived fields (granularities, metadata layout).
  FeSwitch(const CompiledPolicy& compiled, MgpvSink* sink);
  FeSwitch(const CompiledPolicy& compiled, MgpvSink* sink, const MgpvConfig& mgpv_overrides);

  // PacketSink: the replayer feeds raw traffic here.
  void OnPacket(const PacketRecord& pkt) override;

  // Drains the cache at end of run.
  void Flush();

  // Closes a rolling epoch (daemon mode): folds this switch's batch-local
  // obs deltas, then rotates the cache's epoch. No state is evicted. Call
  // at quiescence.
  MgpvEpochInfo RotateMgpvEpoch() {
    block_.Flush();
    return cache_->RotateEpoch();
  }

  const FeSwitchStats& stats() const { return stats_; }
  const MgpvCache& cache() const { return *cache_; }
  MgpvCache& mutable_cache() { return *cache_; }

  // Wiring-time setters (single-threaded, call before traffic). The MGPV
  // handles are forwarded to the cache.
  void set_obs(const FeSwitchObs& obs);
  void set_mgpv_obs(const MgpvObs& obs) { cache_->set_obs(obs); }
  const SwitchProgram& program() const { return program_; }

  // The MgpvConfig implied by a compiled policy (prototype defaults).
  static MgpvConfig DefaultConfig(const CompiledPolicy& compiled);

 private:
  // Batch-local delta cells for the superfe_switch_* counters.
  struct LocalObs {
    obs::WorkerObsBlock::CounterCell* packets_seen = nullptr;
    obs::WorkerObsBlock::CounterCell* packets_filtered = nullptr;
    obs::WorkerObsBlock::CounterCell* packets_batched = nullptr;
  };

  SwitchProgram program_;
  FeSwitchStats stats_;
  FeSwitchObs obs_;
  obs::WorkerObsBlock block_;
  LocalObs local_;
  std::unique_ptr<MgpvCache> cache_;
};

}  // namespace superfe

#endif  // SUPERFE_SWITCHSIM_FE_SWITCH_H_
