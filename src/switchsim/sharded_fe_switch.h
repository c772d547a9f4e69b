// Sharded FE-Switch: N independent FeSwitch/MgpvCache instances keyed by the
// coarsest-granularity (CG) group hash, so a parallel replay driver can run
// one switch pipe per thread without any cross-shard locking.
//
// Routing invariant: ShardOf() uses the exact key derivation MgpvCache uses
// internally (InitiatorKey::Of(pkt).Hash(cg)), so every packet of a CG
// group lands in the same shard and each shard's cache sees the same per-group
// packet sequence a single cache would. The NIC-side routing
// (MgpvReport::hash % members) composes with this: a shard only changes
// *which producer* emits a group's reports, never their per-group order.
#ifndef SUPERFE_SWITCHSIM_SHARDED_FE_SWITCH_H_
#define SUPERFE_SWITCHSIM_SHARDED_FE_SWITCH_H_

#include <memory>
#include <vector>

#include "switchsim/fe_switch.h"

namespace superfe {

struct ShardedSwitchOptions {
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  // Shard s records trace instants / residency clocks against trace lane
  // trace_lane_base + s (one lane per producer thread).
  uint32_t trace_lane_base = 0;
  bool latency = false;
  // Register {stage=...} cycle counters and measure switch-side stages.
  bool profile = false;
  // Auto-flush cadence of each shard's batch-local obs blocks, in packets
  // (1 = legacy per-packet registry cadence).
  uint32_t obs_batch_packets = 4096;
  // Fault-injection wiring (not owned): shard s's MGPV cache consults
  // injector->PoolExhausted(s, now) on long allocs. Null = no hooks.
  FaultInjector* injector = nullptr;
};

class ShardedFeSwitch {
 public:
  // One shard per sink. Cumulative metrics (superfe_switch_* counters with
  // {shard="<s>"} labels, shared superfe_mgpv_* counters) are registered so
  // the family totals equal a one-shard run's; only the live_entries gauge
  // gets a per-shard label (concurrent writers would tear a shared gauge).
  // A one-shard switch registers every name unlabeled.
  ShardedFeSwitch(const CompiledPolicy& compiled,
                  const std::vector<MgpvSink*>& shard_sinks,
                  const MgpvConfig& mgpv_overrides,
                  const ShardedSwitchOptions& options);

  size_t size() const { return shards_.size(); }
  FeSwitch& shard(size_t s) { return *shards_[s]; }
  const FeSwitch& shard(size_t s) const { return *shards_[s]; }

  // The shard that owns `pkt`'s CG group. Stable across the run; identical
  // to the derivation MgpvCache::Insert applies. 0 without hashing when
  // there is one shard.
  uint32_t ShardOf(const PacketRecord& pkt) const;

  // Every shard as a replay target, in shard order.
  std::vector<PacketSink*> PacketSinks();

  // Drains every shard's cache, in shard order. Call only after all replay
  // threads have joined (flush is not concurrency-safe against inserts).
  void Flush();

  // Rotates every shard's rolling epoch, in shard order (daemon mode).
  // Same quiescence requirement as Flush(); no state is evicted.
  std::vector<MgpvEpochInfo> RotateEpochs();

  // Exact sums over per-shard stats (integer adds, order-independent).
  FeSwitchStats AggregateSwitchStats() const;
  MgpvStats AggregateMgpvStats() const;

 private:
  Granularity cg_;
  std::vector<std::unique_ptr<FeSwitch>> shards_;
};

}  // namespace superfe

#endif  // SUPERFE_SWITCHSIM_SHARDED_FE_SWITCH_H_
