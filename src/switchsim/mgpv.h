// The multi-granularity key-vector cache (MGPV, §5): the core FE-Switch
// data structure that batches per-packet feature metadata per coarsest-
// granularity group before shipping it to the SmartNIC.
//
// Structure (Fig 7): a hash-indexed array of short buffers (default 4 cells
// x 16384 entries), a stack-allocated pool of long buffers (20 cells x
// 4096), and a synchronized FG-group-key hash table (16384 slots). Eviction
// happens on hash collision, buffer overflow, or aging (§5.2).
//
// Configured with a single-granularity chain this degenerates to \*Flow's
// GPV, which is the Fig 13 baseline.
#ifndef SUPERFE_SWITCHSIM_MGPV_H_
#define SUPERFE_SWITCHSIM_MGPV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/worker_block.h"
#include "switchsim/evict.h"
#include "switchsim/group_key.h"

namespace superfe {

// Observability handles for one MGPV cache instance. All pointers may be
// null (metrics off); counters mirror MgpvStats exactly — they are bumped at
// the same sites — so exported totals always equal the RunReport fields.
struct MgpvObs {
  obs::Counter* packets_in = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* reports_out = nullptr;
  obs::Counter* cells_out = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Counter* fg_syncs = nullptr;
  obs::Counter* fg_collisions = nullptr;
  obs::Counter* long_allocs = nullptr;
  obs::Counter* long_alloc_failures = nullptr;
  obs::Counter* evictions[5] = {};  // Indexed by EvictReason.
  obs::Histogram* report_cells = nullptr;
  obs::Gauge* live_entries = nullptr;  // Valid short-buffer entries, live.
  // Rolling-epoch counter of this cache instance (daemon mode); bumped by
  // RotateEpoch(). Per-instance like live_entries.
  obs::Gauge* epoch = nullptr;
  // Batch residency (first ingest -> eviction, trace-time ns) per eviction
  // cause; observed at the same site as the eviction counters, so each
  // cause's residency count equals its eviction count. Null unless latency
  // tracking is on.
  obs::LatencyHistogram* residency[5] = {};  // Indexed by EvictReason.
  // Measured switch-side MGPV cycles, superfe_cycles_total{stage="mgpv"}.
  // Null unless `profile` was set at Create time.
  obs::Counter* cycles = nullptr;
  obs::TraceRecorder* trace = nullptr;
  uint32_t trace_lane = 0;

  // Cold-tier identity for the owning cache's WorkerObsBlock: where to
  // register the batching tier's meta-metrics, the {block=...} label value,
  // and the auto-flush cadence in packets (1 restores the legacy
  // per-packet registry cadence).
  obs::MetricsRegistry* registry = nullptr;
  std::string block_name = "mgpv";
  uint32_t flush_packets = 4096;

  // Registers the standard superfe_mgpv_* metrics (docs/OBSERVABILITY.md).
  // Null `registry`/`trace` leave the corresponding handles null; `latency`
  // additionally registers the superfe_latency_mgpv_residency_ns family and
  // `profile` the {stage="mgpv"} cycle counter.
  // `instance_labels` (e.g. {shard="<i>"}) applies only to the live_entries
  // gauge — a per-instance level that multiple writers would tear — while
  // every cumulative counter/histogram stays shared across instances, so a
  // sharded cache's superfe_mgpv_* totals are identical to an unsharded
  // run's and the {cause}-labeled latency lookups stay unchanged.
  static MgpvObs Create(obs::MetricsRegistry* registry, obs::TraceRecorder* trace,
                        uint32_t trace_lane, bool latency = false,
                        const obs::LabelSet& instance_labels = {},
                        bool profile = false);
};

struct MgpvConfig {
  // Prototype defaults from §7.
  uint32_t short_buffers = 16384;
  uint32_t short_size = 4;
  uint32_t long_buffers = 4096;
  uint32_t long_size = 20;
  uint32_t fg_table_size = 16384;

  // Aging (§5.2): entries idle for more than this are recycled by the
  // recirculation scan; 0 disables aging. The default matches the paper's
  // bound on batching delay, which "does not exceed O(10) milliseconds"
  // (§8.4).
  uint64_t aging_timeout_ns = 10'000'000;  // 10 ms.
  // Entries examined by the recirculating "internal packets" per inserted
  // packet (models the recirculation-port scan frequency).
  uint32_t aging_scan_per_packet = 4;

  // From the compiled policy.
  Granularity cg = Granularity::kFlow;
  Granularity fg = Granularity::kFlow;
  bool multi_granularity = false;
  uint32_t metadata_bytes_per_cell = 7;

  // Graceful overload shedding (docs/ROBUSTNESS.md). Off by default so the
  // cache's eviction sequence stays byte-identical to the historical
  // behavior; fault-plan runs turn it on. While the long-buffer pool is
  // empty: (a) the aging scan tightens its timeout by
  // `pressure_aging_divisor` so idle batches drain sooner, and (b) a failed
  // long alloc first tries a priority eviction — scan up to
  // `pressure_evict_scan` entries and evict the stalest long-buffer holder
  // (counted in MgpvStats::pressure_evictions, cause kAging) — before
  // falling back to the short-full eviction.
  bool graceful_overload = false;
  uint32_t pressure_aging_divisor = 4;
  uint32_t pressure_evict_scan = 16;

  // Total switch SRAM footprint of this cache instance (Fig 13 metric).
  uint64_t MemoryFootprintBytes() const;
};

struct MgpvStats {
  uint64_t packets_in = 0;
  uint64_t bytes_in = 0;

  uint64_t reports_out = 0;
  uint64_t cells_out = 0;
  uint64_t bytes_out = 0;  // Reports + FG sync messages.
  uint64_t fg_syncs = 0;
  uint64_t fg_collisions = 0;

  uint64_t evictions[5] = {0, 0, 0, 0, 0};  // Indexed by EvictReason.

  uint64_t long_allocs = 0;
  uint64_t long_alloc_failures = 0;

  // Degraded-mode accounting (zero unless graceful_overload / a fault plan).
  uint64_t pressure_evictions = 0;      // Priority evictions under pool pressure.
  uint64_t injected_pool_failures = 0;  // Long allocs failed by fault injection.

  // Fraction of original packet *rate* still crossing to the NIC
  // (reports / packets). Fig 12's "receiving rate" metric.
  double MessageRatio() const {
    return packets_in == 0 ? 0.0 : static_cast<double>(reports_out) /
                                       static_cast<double>(packets_in);
  }
  // Fraction of original *bytes* crossing to the NIC. Fig 12's "receiving
  // throughput" metric; 1 - this is the paper's ">80% reduction".
  double ByteRatio() const {
    return bytes_in == 0 ? 0.0 : static_cast<double>(bytes_out) /
                                     static_cast<double>(bytes_in);
  }
};

// Snapshot taken at a rolling-epoch boundary (daemon mode). The epoch is an
// accounting boundary, NOT a flush: cached batches carry across it (bounded
// by construction — fixed buffers plus aging), which is what keeps
// concatenated epoch exports identical to a one-shot run.
struct MgpvEpochInfo {
  uint64_t epoch = 0;  // 1-based index of the epoch just closed.
  double occupancy = 0.0;
  uint64_t live_entries = 0;
  uint64_t free_long_buffers = 0;
  uint64_t trace_now_ns = 0;  // Trace-time position at rotation.
  MgpvStats stats;            // Cumulative (not per-epoch deltas).
};

class MgpvCache {
 public:
  MgpvCache(const MgpvConfig& config, MgpvSink* sink);

  // Inserts one (already filtered) packet; may trigger evictions into the
  // sink and advances the aging scan.
  void Insert(const PacketRecord& pkt);

  // Drains all cached metadata (end of run).
  void Flush();

  const MgpvStats& stats() const { return stats_; }
  const MgpvConfig& config() const { return config_; }

  // Installs observability handles and binds the cache's batch-local obs
  // block to them. Call before traffic; the cache is single-threaded, so
  // this is only a wiring-time setter.
  void set_obs(const MgpvObs& obs);

  // Fault-injection wiring (not owned; wiring-time setter). With an
  // injector, long allocs inside an injected pool-exhaustion window for
  // `shard` fail deterministically (counted in injected_pool_failures).
  void set_fault(FaultInjector* injector, uint32_t shard) {
    fault_ = injector;
    fault_shard_ = shard;
  }

  // Closes the current rolling epoch: folds the batch-local obs deltas into
  // the registry (so boundary reads are exact), bumps the epoch gauge, and
  // returns a state snapshot. Deliberately does NOT evict anything — see
  // MgpvEpochInfo. Call at quiescence (the cache is single-threaded).
  MgpvEpochInfo RotateEpoch();

  uint64_t epoch() const { return epoch_; }

  // Occupied entries / total entries.
  double Occupancy() const;

  // Fraction of occupied entries accessed within `window_ns` of the current
  // time — Fig 14's "buffer efficiency" (active flows in MGPV buffers).
  double BufferEfficiency(uint64_t window_ns) const;

 private:
  struct Entry {
    bool valid = false;
    uint32_t hash = 0;
    InitiatorKey key;  // The CG prefix of the group's initiator key.
    uint64_t last_access_ns = 0;
    // Trace-time arrival of the current batch's first cell. Every eviction
    // clears both buffers, so "short_cells is empty" identifies batch start.
    uint64_t batch_start_ns = 0;
    int32_t long_index = -1;  // -1 = no long buffer owned.
    std::vector<MgpvCell> short_cells;
  };

  struct FgSlot {
    bool valid = false;
    InitiatorKey key;
  };

  // Emits the entry's cells (short then long, i.e. chronological order) and
  // releases its long buffer. The entry's buffers are cleared; validity is
  // managed by the caller.
  void EvictCells(Entry& entry, EvictReason reason);

  // Looks up / installs the FG key, emitting a sync message on writes.
  // Multi-granularity policies only: the table is empty otherwise.
  uint16_t FgIndexFor(const InitiatorKey& fg_key);

  // Advances the recirculation aging scan by config_.aging_scan_per_packet
  // entries.
  void AgeScan();

  // Graceful-overload priority eviction: scans up to pressure_evict_scan
  // entries and evicts the stalest long-buffer holder other than `current`,
  // freeing its long buffer for reuse. Returns true when one was evicted.
  bool PressureEvict(const Entry& current);

  // Batch-local delta cells bound to obs_'s shared handles (null when the
  // corresponding handle is null). All per-packet bumps go through these;
  // block_ folds them into the registry per flush_packets and at Flush().
  struct LocalObs {
    obs::WorkerObsBlock::CounterCell* packets_in = nullptr;
    obs::WorkerObsBlock::CounterCell* bytes_in = nullptr;
    obs::WorkerObsBlock::CounterCell* reports_out = nullptr;
    obs::WorkerObsBlock::CounterCell* cells_out = nullptr;
    obs::WorkerObsBlock::CounterCell* bytes_out = nullptr;
    obs::WorkerObsBlock::CounterCell* fg_syncs = nullptr;
    obs::WorkerObsBlock::CounterCell* fg_collisions = nullptr;
    obs::WorkerObsBlock::CounterCell* long_allocs = nullptr;
    obs::WorkerObsBlock::CounterCell* long_alloc_failures = nullptr;
    obs::WorkerObsBlock::CounterCell* evictions[5] = {};
    obs::WorkerObsBlock::HistogramCell* report_cells = nullptr;
    obs::WorkerObsBlock::GaugeCell* live_entries = nullptr;
    obs::WorkerObsBlock::LatencyCell* residency[5] = {};
    obs::WorkerObsBlock::CounterCell* cycles = nullptr;
  };

  MgpvConfig config_;
  MgpvSink* sink_;
  MgpvStats stats_;
  MgpvObs obs_;
  obs::WorkerObsBlock block_;
  LocalObs local_;
  uint64_t live_entries_ = 0;  // Valid entries, tracked for the gauge.

  std::vector<Entry> entries_;
  std::vector<std::vector<MgpvCell>> long_buffers_;
  std::vector<uint32_t> free_long_;  // Stack of free long-buffer indices.
  std::vector<FgSlot> fg_table_;

  uint64_t now_ns_ = 0;
  uint64_t epoch_ = 0;
  uint32_t scan_cursor_ = 0;
  uint32_t pressure_cursor_ = 0;  // Separate cursor for PressureEvict scans.

  FaultInjector* fault_ = nullptr;
  uint32_t fault_shard_ = 0;
};

}  // namespace superfe

#endif  // SUPERFE_SWITCHSIM_MGPV_H_
