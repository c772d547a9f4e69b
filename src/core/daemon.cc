// Continuous-operation daemon mode (docs/ROBUSTNESS.md, "Daemon mode").
//
// RunDaemon wires a PacketSource into a StreamingReplay and closes rolling
// MGPV epochs at packet-count / wall-time boundaries. An epoch boundary is
// an *accounting* fence, not a flush: the ingest thread waits for the
// streaming backlog to drain, closes the cluster producers, runs a
// drain-only barrier (queues empty, obs deltas folded — NIC/MGPV state kept),
// snapshots the cumulative pipeline totals, and rotates each MGPV cache's
// epoch counter. Because no state is evicted, the concatenation of per-epoch
// feature exports is exactly the one-shot output, and the reconciliation
//   cells_offered == cells_processed + cells_shed + cells_lost + overflow
// holds at every boundary (everything offered has either been processed or
// landed in one of the loss ledgers once the queues are empty).
#include <algorithm>
#include <chrono>
#include <thread>

#include "core/runtime.h"

namespace superfe {

namespace {

// Cumulative pipeline totals at a quiescent boundary; epoch records are
// deltas of successive snapshots.
struct PipelineTotals {
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t cells_offered = 0;
  uint64_t cells_processed = 0;
  uint64_t cells_shed = 0;
  uint64_t cells_lost = 0;
  uint64_t cells_overflow = 0;
  uint64_t vectors = 0;
  // Fault-activity signals (zero without an injector).
  uint64_t members_crashed = 0;
  uint64_t groups_abandoned = 0;
  uint64_t pool_exhaustions = 0;
  uint64_t watchdog_stalls = 0;
};

uint64_t Delta(uint64_t now, uint64_t prev) { return now >= prev ? now - prev : 0; }

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double WallMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

}  // namespace

DaemonReport SuperFeRuntime::RunDaemon(PacketSource& source, FeatureSink* sink,
                                       const DaemonConfig& daemon) {
  const auto wall_start = std::chrono::steady_clock::now();
  const size_t chunk_packets = std::max<size_t>(daemon.chunk_packets, 1);
  DaemonReport report;

  SetSinkTarget(sink);
  BeginRunTelemetry();
  // Packet-indexed fault triggers resolve against the caller-supplied axis
  // (the first loop of a looped source), with the same arithmetic Run()
  // uses — so a chaos plan bites at identical trace times in both modes.
  ResolveFaultTriggers(daemon.fault_trigger_trace);

  StreamingReplay stream(
      config_.replay, sharded_->PacketSinks(), ShardReplayObs(),
      [this](const PacketRecord& pkt) { return sharded_->ShardOf(pkt); },
      std::max<size_t>(daemon.max_chunks_in_flight, 1));

  // Everything this lambda reads is quiescent when it runs (WaitIdle +
  // producer close + drain barrier precede every call).
  const auto snapshot = [&]() {
    PipelineTotals t;
    const ReplayReport r = stream.Report();
    t.packets = r.packets;
    t.bytes = r.bytes;
    const FeNicStats nic = cluster_->AggregateStats();
    t.cells_processed = nic.cells;
    t.vectors = nic.vectors_emitted;
    for (size_t i = 0; i < cluster_->size(); ++i) {
      t.cells_overflow += cluster_->worker_stats(i).cells_dropped;
    }
    if (injector_ != nullptr) {
      const FaultStats fs = injector_->Snapshot();
      t.cells_offered = fs.cells_offered;
      t.cells_shed = fs.cells_shed;
      t.cells_lost = fs.cells_lost_to_failover;
      t.members_crashed = fs.members_crashed;
      t.groups_abandoned = fs.groups_abandoned;
      t.pool_exhaustions = fs.injected_pool_exhaustions;
      t.watchdog_stalls = fs.watchdog_stall_events;
    } else {
      // Without an injector nothing is shed or lost: everything MGPV evicts
      // is offered, and only lossy overflow can subtract from it.
      t.cells_offered = sharded_->AggregateMgpvStats().cells_out;
    }
    return t;
  };

  PipelineTotals prev;  // Zero: the first epoch's delta is the cumulative total.
  auto epoch_start = wall_start;
  uint64_t epoch_start_packets = 0;
  uint64_t epoch_ingest_shed = 0;
  bool drain_barrier_ok = true;

  // Records the epoch spanning (prev, now]; `prev` advances to `now`.
  const auto close_epoch = [&](const PipelineTotals& now, bool final_epoch,
                               double occupancy, uint64_t mgpv_epoch) {
    DaemonEpoch e;
    e.index = report.epochs.size() + 1;
    e.packets = Delta(now.packets, prev.packets);
    e.bytes = Delta(now.bytes, prev.bytes);
    e.cells_offered = Delta(now.cells_offered, prev.cells_offered);
    e.cells_processed = Delta(now.cells_processed, prev.cells_processed);
    e.cells_shed = Delta(now.cells_shed, prev.cells_shed);
    e.cells_lost = Delta(now.cells_lost, prev.cells_lost);
    e.cells_overflow = Delta(now.cells_overflow, prev.cells_overflow);
    e.vectors = Delta(now.vectors, prev.vectors);
    e.ingest_shed_packets = epoch_ingest_shed;
    // The per-epoch reconciliation; deltas of an invariant that holds
    // cumulatively at both endpoints hold it too, but assert the delta form
    // directly so a single bad boundary cannot hide behind a later one.
    e.reconciled = e.cells_offered ==
                   e.cells_processed + e.cells_shed + e.cells_lost + e.cells_overflow;
    e.fault_active = e.cells_shed > 0 || e.cells_lost > 0 || e.cells_overflow > 0 ||
                     epoch_ingest_shed > 0 ||
                     Delta(now.members_crashed, prev.members_crashed) > 0 ||
                     Delta(now.groups_abandoned, prev.groups_abandoned) > 0 ||
                     Delta(now.pool_exhaustions, prev.pool_exhaustions) > 0 ||
                     Delta(now.watchdog_stalls, prev.watchdog_stalls) > 0;
    e.final_epoch = final_epoch;
    e.mgpv_occupancy = occupancy;
    e.mgpv_epoch = mgpv_epoch;
    e.wall_ms = WallMs(epoch_start);
    report.all_epochs_reconciled = report.all_epochs_reconciled && e.reconciled;
    if (!final_epoch && health_ != nullptr) {
      // One health mark per rotated epoch (FinishRun marks the final one):
      // a faulty epoch pushes /healthz to degraded until the mark decays.
      health_->OnRunComplete(e.fault_active, SteadyNowNs());
    }
    report.epochs.push_back(e);
    if (daemon.on_epoch) {
      daemon.on_epoch(e);
    }
    prev = now;
    epoch_start = std::chrono::steady_clock::now();
    epoch_start_packets = stream.packets_fed();
    epoch_ingest_shed = 0;
  };

  // Rotation boundary: drain to quiescence, snapshot, rotate the MGPV
  // epoch counters (no eviction), and record the closed epoch.
  const auto rotate = [&]() {
    stream.WaitIdle();
    for (auto& producer : shard_producers_) {
      producer->Close();  // Stage->queue + fold offered counts, then reopen.
    }
    const uint64_t timeout = daemon.drain_timeout_ms > 0
                                 ? daemon.drain_timeout_ms
                                 : cluster_->options().flush_timeout_ms;
    drain_barrier_ok = cluster_->DrainWithDeadline(timeout).ok() && drain_barrier_ok;
    cluster_->UpdateObsGauges();
    const PipelineTotals now = snapshot();
    double occupancy = 0.0;
    uint64_t mgpv_epoch = 0;
    for (const MgpvEpochInfo& info : sharded_->RotateEpochs()) {
      occupancy = std::max(occupancy, info.occupancy);
      mgpv_epoch = info.epoch;
    }
    close_epoch(now, /*final_epoch=*/false, occupancy, mgpv_epoch);
  };

  const auto rotation_due = [&]() {
    if (daemon.epoch_packets > 0 &&
        stream.packets_fed() - epoch_start_packets >= daemon.epoch_packets) {
      return true;
    }
    return daemon.epoch_wall_ms > 0 &&
           WallMs(epoch_start) >= static_cast<double>(daemon.epoch_wall_ms);
  };

  std::vector<PacketRecord> chunk;
  uint64_t idle_backoff_ms = 1;
  for (;;) {
    if (daemon.stop != nullptr) {
      const int sig = daemon.stop->load(std::memory_order_relaxed);
      if (sig != 0) {
        report.stopped_by_signal = true;
        report.signal = sig;
        source.RequestStop();
        break;
      }
    }
    if (daemon.max_seconds > 0 &&
        WallMs(wall_start) >= static_cast<double>(daemon.max_seconds) * 1000.0) {
      source.RequestStop();
      break;
    }
    if (daemon.max_epochs > 0 && report.epochs.size() >= daemon.max_epochs) {
      source.RequestStop();
      break;
    }
    chunk.clear();
    const PacketSource::Next next = source.NextChunk(&chunk, chunk_packets);
    if (next == PacketSource::Next::kEnd) {
      break;
    }
    if (next == PacketSource::Next::kIdle) {
      // Time-based rotation keeps firing while the source is quiet, so a
      // stalled feed still produces (empty, reconciled) epoch records.
      if (daemon.epoch_wall_ms > 0 && rotation_due()) {
        rotate();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(idle_backoff_ms));
      idle_backoff_ms = std::min<uint64_t>(idle_backoff_ms * 2, 100);
      continue;
    }
    idle_backoff_ms = 1;
    report.packets_ingested += chunk.size();
    if (daemon.shed_backlog_chunks > 0 &&
        stream.Backlog() >= daemon.shed_backlog_chunks) {
      // Overload: drop the chunk whole at ingest rather than wedging the
      // feed behind a saturated pipeline. Shed packets never reach replay,
      // so they are invisible to the cell reconciliation by design.
      report.packets_shed_ingest += chunk.size();
      epoch_ingest_shed += chunk.size();
      continue;
    }
    stream.Feed(std::move(chunk));
    if (rotation_due()) {
      rotate();
    }
  }

  // Final epoch: identical drain, then the one-shot end-of-run flush
  // (cache eviction, then the NIC flush barrier).
  stream.WaitIdle();
  stream.Close();
  const ReplayReport offered = stream.Report();
  const Status flush_status = FlushPipeline();
  {
    const PipelineTotals now = snapshot();
    double occupancy = 0.0;  // Post-flush the caches are empty by contract.
    close_epoch(now, /*final_epoch=*/true, occupancy, sharded_->shard(0).cache().epoch());
  }

  report.run = FinishRun(offered, flush_status);
  report.drained = flush_status.ok() && drain_barrier_ok &&
                   (injector_ == nullptr || report.run.fault.reconciled);
  report.ingest = source.stats();
  report.wall_ms = WallMs(wall_start);
  return report;
}

}  // namespace superfe
