// FE-NIC: the SmartNIC side of SuperFE (§6). Consumes MGPV batches evicted
// by FE-Switch, re-splits multi-granularity groups via FG keys, runs the
// compiled map/reduce/synthesize pipeline with streaming algorithms, and
// emits feature vectors per the policy's collect unit — while accounting
// NFP cycles and memory through the cost model and ILP placement.
//
// Threading model: each FeNic is owned by exactly one executing thread at a
// time (a replay thread when its NicCluster dispatches inline, a dedicated
// worker thread otherwise). All mutating entry points and the Snapshot()
// accessors take an internal mutex, so *other* threads may read consistent
// stats/perf snapshots while the owner is processing. The raw stats()/perf()
// references remain for single-threaded and quiescent (post-Flush) use.
#ifndef SUPERFE_NICSIM_FE_NIC_H_
#define SUPERFE_NICSIM_FE_NIC_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/feature_vector.h"
#include "nicsim/cost_model.h"
#include "obs/metrics.h"
#include "obs/worker_block.h"
#include "nicsim/exec.h"
#include "nicsim/group_table.h"
#include "nicsim/placement.h"
#include "policy/compile.h"
#include "switchsim/evict.h"

namespace superfe {

struct FeNicConfig {
  NfpArch arch;
  NicOptimizations optimizations = NicOptimizations::All();
  ExecOptions exec;

  uint32_t group_table_indices = 16384;
  uint32_t group_table_width = 4;

  // Expected concurrent groups per granularity for the placement problem.
  uint32_t groups_hint = 16384;  // Matches the FG-table size (§7).

  // Continuous operation: for group-unit collect policies, groups idle for
  // longer than this emit their feature vector and are recycled (the
  // "feature vectors will be evicted from the SmartNIC" flow of §3.2).
  // 0 keeps vectors until Flush() (batch mode).
  uint64_t idle_timeout_ns = 0;
};

struct FeNicStats {
  uint64_t reports = 0;
  uint64_t cells = 0;
  uint64_t fg_syncs = 0;
  uint64_t vectors_emitted = 0;
  uint64_t dram_detours = 0;
};

// Nullable observability handles mirroring FeNicStats (superfe_nic_*). Each
// member NIC of a cluster gets its own child labeled {nic="<index>"}.
struct FeNicObs {
  obs::Counter* reports = nullptr;
  obs::Counter* cells = nullptr;
  obs::Counter* fg_syncs = nullptr;
  obs::Counter* vectors_emitted = nullptr;
  obs::Counter* dram_detours = nullptr;
  // Measured NIC-side cycles: superfe_cycles_total{stage="feature_kernels"}
  // brackets OnMgpv, {stage="sync_broadcast"} brackets OnFgSync. Null
  // unless `profile` was set at Create time.
  obs::Counter* cycles_feature = nullptr;
  obs::Counter* cycles_sync = nullptr;

  // Cold-tier identity for the NIC's WorkerObsBlock (see MgpvObs). Cells
  // count as packets for the flush cadence.
  obs::MetricsRegistry* registry = nullptr;
  std::string block_name = "nic";
  uint32_t flush_packets = 4096;

  static FeNicObs Create(obs::MetricsRegistry* registry, uint32_t nic_index,
                         bool profile = false);
};

class FeNic : public MgpvSink {
 public:
  // Fails only on internal compilation inconsistencies.
  static Result<std::unique_ptr<FeNic>> Create(const CompiledPolicy& compiled,
                                               const FeNicConfig& config, FeatureSink* sink);

  // MgpvSink:
  void OnMgpv(const MgpvReport& report) override;
  void OnFgSync(const FgSyncMessage& sync) override;

  // Batch entry point: processes `count` reports in one locked pass. The
  // reports' cells are assembled into one PacketBatchSoA, so group runs
  // span report boundaries; any split of the reports into calls gives the
  // same output. The NicCluster worker feeds its whole dequeued batch here.
  void OnMgpvBatch(const MgpvReport* reports, size_t count);

  // Emits feature vectors for all live groups of the collect unit and
  // clears state (end of run).
  void Flush();

  // Degraded-mode counterpart of Flush(): discards all live state *without*
  // emitting (a crashed member's half-built groups must not leak partial
  // vectors). Returns the number of collect-unit groups abandoned, which the
  // cluster feeds into FaultStats::groups_abandoned.
  uint64_t AbandonState();

  // Consistent copies, safe to call from any thread while the owning
  // thread is processing (NicCluster aggregates these mid-run).
  FeNicStats Snapshot() const;
  NicPerfModel PerfSnapshot() const;

  // Raw references: valid only when no other thread is mutating this NIC
  // (single-threaded runs, or after a cluster Flush() barrier).
  const FeNicStats& stats() const { return stats_; }
  const NicPerfModel& perf() const { return perf_; }
  const PlacementResult& placement() const { return placement_; }
  const PlacementProblem& placement_problem() const { return placement_problem_; }
  const ExecPlan& plan() const { return plan_; }

  // Live group counts per granularity (diagnostics / memory experiments).
  std::vector<size_t> GroupCounts() const;

  // Cumulative per-granularity group-table statistics (lookups, inserts,
  // DRAM detours). Survives Flush(), which clears entries but not the
  // counters — the cluster cost report reads these after the run.
  std::vector<GroupTableStats> TableStats() const;

  // Wiring-time setter (call before the owning thread starts processing).
  void set_obs(const FeNicObs& obs);

 private:
  FeNic(const CompiledPolicy& compiled, const FeNicConfig& config, FeatureSink* sink,
        ExecPlan plan, PlacementProblem problem, PlacementResult placement);

  // Sweeps the collect-unit table and emits/evicts groups idle for longer
  // than config.idle_timeout_ns (no-op when the timeout is 0 or collection
  // is per-packet). Called per report; the caller holds mu_.
  void EvictIdleGroupsLocked(uint64_t now_ns);

  // Processes the reports as one batch, or one batch per report when idle
  // eviction is on.
  void ProcessReportsLocked(const MgpvReport* reports, size_t count);
  // Assembles the reports' cells into batch_ and updates their groups:
  // batch collection sorts each granularity's groups into runs and
  // applies each run at once; per-packet collection hands on to
  // ProcessRowsLocked.
  void ProcessBatchLocked(const MgpvReport* reports, size_t count);
  // Per-packet collection over batch_ in arrival order (no sort): each row
  // is a one-row run at every granularity of the chain, costed per cell,
  // and its vector is emitted before the next row.
  void ProcessRowsLocked(const MgpvReport* reports);
  // The group of batch_ row `row` at granularity index `gi`, found or
  // created; counts a DRAM detour. A CG group takes its key and hash from
  // the row's report (the reuse_switch_hash credit, §6.2), a finer one
  // derives them from the row's initiator key.
  GroupState& GroupOfLocked(size_t gi, const MgpvReport* reports, size_t row, bool& via_dram);

  // Builds and emits a feature vector for the collect-unit group at
  // granularity index `unit_gi` (AssembleVector locates its siblings).
  void EmitVector(size_t unit_gi, const GroupKey& unit_key, const GroupState& unit_group);

  CompiledPolicy compiled_;
  FeNicConfig config_;
  FeatureSink* sink_;
  ExecPlan plan_;
  PlacementProblem placement_problem_;
  PlacementResult placement_;
  // Batch-local delta cells for the superfe_nic_* counters. Guarded by mu_
  // like stats_; the block auto-flushes per flush_packets cells and at
  // Flush()/AbandonState().
  struct LocalObs {
    obs::WorkerObsBlock::CounterCell* reports = nullptr;
    obs::WorkerObsBlock::CounterCell* cells = nullptr;
    obs::WorkerObsBlock::CounterCell* fg_syncs = nullptr;
    obs::WorkerObsBlock::CounterCell* vectors_emitted = nullptr;
    obs::WorkerObsBlock::CounterCell* dram_detours = nullptr;
    obs::WorkerObsBlock::CounterCell* cycles_feature = nullptr;
    obs::WorkerObsBlock::CounterCell* cycles_sync = nullptr;
  };

  NicPerfModel perf_;
  FeNicStats stats_;
  FeNicObs obs_;
  obs::WorkerObsBlock block_;
  LocalObs local_;

  // Serializes the owner thread's mutations against cross-thread snapshot
  // reads. Uncontended in the one-thread-per-NIC ownership model, so the
  // per-report cost is a single cheap lock/unlock.
  mutable std::mutex mu_;

  // One group table per granularity in the chain.
  GroupTables tables_;

  // Reusable SoA view of the current batch (guarded by mu_ like all state).
  PacketBatchSoA batch_;

  // Precomputed per-cell work (placement-aware); DRAM detours are added
  // dynamically.
  CellWork base_cell_work_;
};

}  // namespace superfe

#endif  // SUPERFE_NICSIM_FE_NIC_H_
