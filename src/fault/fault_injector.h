// FaultInjector: the runtime half of the fault framework. One injector is
// shared by every pipeline stage that has injection hooks compiled in
// (NicCluster routing/workers, BoundedMpscQueue saturation, MgpvCache pool,
// ParallelReplay clock lanes) plus the failover/degraded-mode accounting
// that makes chaos runs reconcile exactly.
//
// Determinism contract (docs/ROBUSTNESS.md): every decision that affects
// *which* reports are processed/shed/lost — RouteFor, QueueSaturated,
// PoolExhausted, ClockSkewNs — is a pure function of (plan, trace-time
// timestamp). The wall-clock-facing pieces (worker stalls, watchdog events,
// flush deadlines) affect only diagnostics, never packet accounting, so
// FaultStats' reconciliation fields are bit-identical across repeats of a
// seeded run while watchdog_stall_events may vary with scheduling.
//
// Thread safety: all query methods are lock-free reads of state frozen at
// BeginRun(); accounting methods use relaxed atomics, except the
// distinct-group sets which take a small mutex (off the hot path — only
// reports actually hit by a fault touch them).
#ifndef SUPERFE_FAULT_FAULT_INJECTOR_H_
#define SUPERFE_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/metrics.h"

namespace superfe {

// Degraded-mode accounting. The reconciliation invariant the chaos tests
// assert (cells, the packet-level unit):
//
//   cells_offered == processed + cells_shed + cells_lost_to_failover
//                    + overflow-dropped (legacy drop_on_overflow / timeout)
//
// where `processed` is the cluster's AggregateStats().cells. Reports that
// *failed over* are processed (by a survivor), so they appear on both the
// offered and processed sides — failed_over counts them separately for
// visibility, it is not a loss bucket.
struct FaultStats {
  // Reconciliation fields — deterministic for a seeded plan.
  uint64_t reports_offered = 0;
  uint64_t cells_offered = 0;
  uint64_t reports_shed = 0;  // No live destination / injected saturation.
  uint64_t cells_shed = 0;
  uint64_t reports_lost_to_failover = 0;  // In the crash-detection window.
  uint64_t cells_lost_to_failover = 0;
  uint64_t reports_failed_over = 0;  // Rerouted to a survivor (processed).
  uint64_t cells_failed_over = 0;
  uint64_t groups_lost_in_flight = 0;   // Distinct groups with >=1 lost report.
  uint64_t groups_failed_over = 0;      // Distinct groups rerouted.
  uint64_t groups_abandoned = 0;        // Dead members' live groups at flush.
  uint64_t members_crashed = 0;         // Members dead by end of run.
  uint64_t injected_pool_exhaustions = 0;  // MGPV long allocs failed by fault.
  uint64_t saturated_pushes = 0;  // Push attempts rejected by injected saturation.
  uint64_t failover_fences = 0;   // Order-preserving handoff fences issued.
  // Wall-clock diagnostics — excluded from the determinism contract.
  uint64_t stalls_injected = 0;
  uint64_t watchdog_stall_events = 0;
  uint64_t flush_deadline_exceeded = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  // Resolves at_packet triggers to trace time: `time_of(i)` must return the
  // post-speedup timestamp of the i-th replayed packet (runtime.cc supplies
  // the same arithmetic the replayer uses). Out-of-range indices saturate
  // past the trace (the event never fires). Call before BeginRun().
  void ResolvePacketTriggers(uint64_t replayed_packets,
                             const std::function<uint64_t(uint64_t)>& time_of);

  // Freezes per-member crash tables for `members` cluster members and
  // resets all run-mutable state (stats, consumed stalls, group sets). Call
  // once per Run before any traffic.
  void BeginRun(uint32_t members);

  // ---- Routing-side hooks (producer threads; deterministic) ----

  struct RouteDecision {
    enum class Action : uint8_t {
      kPrimary,  // No fault: deliver to the primary member.
      kReroute,  // Primary dead & detected: deliver to `target` (survivor).
      kLost,     // Primary dead, crash not yet detected: lost in flight.
      kShed,     // No live member can take it: shed at the switch.
    };
    Action action = Action::kPrimary;
    uint32_t target = 0;
  };

  // Route for a report with CG hash `group_hash` whose primary member is
  // `primary`, evicted at trace-time `evict_ns`, in a cluster of `members`.
  // Rendezvous (HRW) hashing over the members alive at evict_ns picks the
  // failover target, so each dead member's CG-hash range spreads across all
  // survivors and stays stable for the rest of the run.
  RouteDecision RouteFor(uint32_t primary, uint32_t group_hash, uint64_t evict_ns,
                         uint32_t members);

  // True when `member`'s ingest queue is saturated (by injection) at
  // evict_ns: the cluster runs its bounded retry/backoff loop and sheds.
  bool QueueSaturated(uint32_t member, uint64_t evict_ns) const;

  // True when `member` died within the observed run: its crash point is at
  // or before the latest eviction the router saw. Used at flush time to
  // abandon (not emit) the dead member's residual state.
  bool MemberDeadAtFlush(uint32_t member) const;

  // Fast guard: false when the plan has no member-level faults at all, so
  // the per-report routing hook is one predictable branch.
  bool AnyMemberFaults() const { return any_member_faults_; }

  // ---- Worker-side hook ----

  // Wall-clock milliseconds this worker should stall before processing a
  // report evicted at `evict_ns`. Each stall event fires once (consume-once
  // semantics); 0 = no stall pending. Single consumer per member.
  uint64_t TakeStallMs(uint32_t member, uint64_t evict_ns);

  // ---- MGPV-side hook ----

  // True while shard `shard`'s long-buffer pool is forced empty at `now_ns`.
  bool PoolExhausted(uint32_t shard, uint64_t now_ns) const;

  // ---- Replay-side hook ----

  // Sum of active clock-skew offsets for `shard` at trace time `ts`.
  int64_t ClockSkewNs(uint32_t shard, uint64_t ts) const;

  // ---- Accounting (called by the pipeline at the decision sites) ----

  void NoteOffered(uint64_t reports, uint64_t cells);
  void NoteShed(uint64_t reports, uint64_t cells);
  void NoteLost(uint64_t reports, uint64_t cells, uint32_t group_hash);
  void NoteFailover(uint64_t reports, uint64_t cells, uint32_t group_hash);
  void NoteFence();
  void NoteStall();
  void NoteWatchdogStall();
  void NoteFlushDeadline();
  void NoteAbandonedGroups(uint64_t groups);
  void NoteMemberCrashed();
  void NoteInjectedPoolExhaustion();
  void NoteSaturatedPush(uint64_t attempts);

  // Consistent copy (relaxed reads; exact at quiescence).
  FaultStats Snapshot() const;

  // Mirrors the counters into superfe_fault_* metrics (docs/OBSERVABILITY.md)
  // when a registry is present. Wiring-time setter; call before traffic.
  void set_obs(obs::MetricsRegistry* registry);

 private:
  struct MemberCrash {
    uint64_t crash_ns = UINT64_MAX;   // Earliest crash point; MAX = never.
    uint64_t detect_ns = UINT64_MAX;  // crash_ns + detection latency.
  };

  FaultPlan plan_;
  bool any_member_faults_ = false;
  bool any_queue_sat_ = false;
  bool any_pool_exhaust_ = false;
  bool any_clock_skew_ = false;
  bool any_stalls_ = false;

  std::vector<MemberCrash> crashes_;  // Indexed by member; frozen at BeginRun.
  // Latest eviction timestamp the router has seen: the deterministic "end
  // of observed trace" watermark MemberDeadAtFlush compares against.
  std::atomic<uint64_t> evict_watermark_{0};
  // One consume-once flag per plan event (only stalls use theirs).
  std::unique_ptr<std::atomic<bool>[]> consumed_;

  FaultStats stats_;  // Plain; mutated only via the atomics below.
  std::atomic<uint64_t> reports_offered_{0}, cells_offered_{0};
  std::atomic<uint64_t> reports_shed_{0}, cells_shed_{0};
  std::atomic<uint64_t> reports_lost_{0}, cells_lost_{0};
  std::atomic<uint64_t> reports_failed_over_{0}, cells_failed_over_{0};
  std::atomic<uint64_t> groups_abandoned_{0};
  std::atomic<uint64_t> members_crashed_{0};
  std::atomic<uint64_t> injected_pool_exhaustions_{0};
  std::atomic<uint64_t> saturated_pushes_{0};
  std::atomic<uint64_t> fences_{0};
  std::atomic<uint64_t> stalls_injected_{0};
  std::atomic<uint64_t> watchdog_stalls_{0};
  std::atomic<uint64_t> flush_deadlines_{0};

  // Distinct-group tracking (cold path: only fault-affected reports).
  mutable std::mutex groups_mu_;
  std::unordered_set<uint32_t> lost_groups_;
  std::unordered_set<uint32_t> failed_over_groups_;

  // Nullable metric mirrors (superfe_fault_*).
  obs::Counter* obs_shed_cells_ = nullptr;
  obs::Counter* obs_lost_cells_ = nullptr;
  obs::Counter* obs_failover_reports_ = nullptr;
  obs::Counter* obs_fences_ = nullptr;
  obs::Counter* obs_watchdog_stalls_ = nullptr;
  obs::Counter* obs_pool_exhaustions_ = nullptr;
  obs::Counter* obs_saturated_pushes_ = nullptr;
};

}  // namespace superfe

#endif  // SUPERFE_FAULT_FAULT_INJECTOR_H_
