#include "switchsim/mgpv.h"

#include <algorithm>
#include <cassert>

#include "obs/cycles.h"

namespace superfe {

const char* EvictReasonName(EvictReason reason) {
  switch (reason) {
    case EvictReason::kCollision:
      return "collision";
    case EvictReason::kShortFull:
      return "short_full";
    case EvictReason::kLongFull:
      return "long_full";
    case EvictReason::kAging:
      return "aging";
    case EvictReason::kFlush:
      return "flush";
  }
  return "?";
}

MgpvObs MgpvObs::Create(obs::MetricsRegistry* registry, obs::TraceRecorder* trace,
                        uint32_t trace_lane, bool latency,
                        const obs::LabelSet& instance_labels, bool profile) {
  MgpvObs o;
  o.trace = trace;
  o.trace_lane = trace_lane;
  if (registry == nullptr) {
    return o;
  }
  o.registry = registry;
  for (const auto& label : instance_labels) {
    o.block_name += "-" + label.first + "-" + label.second;
  }
  o.packets_in = registry->GetCounter("superfe_mgpv_packets_in_total", {},
                                      "Packets inserted into the MGPV cache");
  o.bytes_in = registry->GetCounter("superfe_mgpv_bytes_in_total", {},
                                    "Wire bytes of packets inserted into MGPV");
  o.reports_out = registry->GetCounter("superfe_mgpv_reports_out_total", {},
                                       "MGPV reports evicted to the NIC");
  o.cells_out = registry->GetCounter("superfe_mgpv_cells_out_total", {},
                                     "MGPV cells evicted to the NIC");
  o.bytes_out = registry->GetCounter("superfe_mgpv_bytes_out_total", {},
                                     "Switch->NIC wire bytes (reports + FG syncs)");
  o.fg_syncs = registry->GetCounter("superfe_mgpv_fg_syncs_total", {},
                                    "FG-key-table synchronization messages");
  o.fg_collisions = registry->GetCounter("superfe_mgpv_fg_collisions_total", {},
                                         "FG-table slot overwrites");
  o.long_allocs = registry->GetCounter("superfe_mgpv_long_allocs_total", {},
                                       "Long buffers taken from the pool");
  o.long_alloc_failures = registry->GetCounter("superfe_mgpv_long_alloc_failures_total", {},
                                               "Long-buffer requests that found the pool empty");
  for (int i = 0; i < 5; ++i) {
    o.evictions[i] =
        registry->GetCounter("superfe_mgpv_evictions_total",
                             {{"cause", EvictReasonName(static_cast<EvictReason>(i))}},
                             "MGPV evictions by cause");
  }
  o.report_cells = registry->GetHistogram("superfe_mgpv_report_cells", {1, 2, 4, 8, 16, 32},
                                          {}, "Cells per evicted MGPV report");
  if (latency) {
    for (int i = 0; i < 5; ++i) {
      o.residency[i] = registry->GetLatencyHistogram(
          "superfe_latency_mgpv_residency_ns",
          {{"cause", EvictReasonName(static_cast<EvictReason>(i))}},
          "Batch residency in the MGPV slot (first ingest to eviction, trace-time ns)");
    }
  }
  o.live_entries = registry->GetGauge("superfe_mgpv_live_entries", instance_labels,
                                      "Occupied MGPV short-buffer entries");
  o.epoch = registry->GetGauge("superfe_mgpv_epoch", instance_labels,
                               "Rolling-epoch counter of this MGPV instance");
  if (profile) {
    o.cycles = registry->GetCounter("superfe_cycles_total", {{"stage", "mgpv"}},
                                    "Measured worker cycles by pipeline stage");
  }
  return o;
}

uint64_t MgpvConfig::MemoryFootprintBytes() const {
  const uint32_t cg_key_bytes = InitiatorKey::PrefixBytes(cg);
  // Per short entry: key + hash (4) + last-access timestamp (4) + long
  // pointer (2) + cell count (1) + the short cells themselves.
  const uint64_t per_entry =
      cg_key_bytes + 4 + 4 + 2 + 1 + static_cast<uint64_t>(short_size) * metadata_bytes_per_cell;
  uint64_t total = static_cast<uint64_t>(short_buffers) * per_entry;
  // Long buffer pool + the allocation stack (2-byte indices + top pointer).
  total += static_cast<uint64_t>(long_buffers) * long_size * metadata_bytes_per_cell;
  total += static_cast<uint64_t>(long_buffers) * 2 + 4;
  if (multi_granularity) {
    // FG key table: five-tuple keys.
    total += static_cast<uint64_t>(fg_table_size) * 13;
  }
  return total;
}

void MgpvCache::set_obs(const MgpvObs& obs) {
  obs_ = obs;
  block_.Init(obs.registry, obs.block_name, obs.flush_packets);
  local_ = LocalObs{};
  local_.packets_in = block_.BindCounter(obs.packets_in);
  local_.bytes_in = block_.BindCounter(obs.bytes_in);
  local_.reports_out = block_.BindCounter(obs.reports_out);
  local_.cells_out = block_.BindCounter(obs.cells_out);
  local_.bytes_out = block_.BindCounter(obs.bytes_out);
  local_.fg_syncs = block_.BindCounter(obs.fg_syncs);
  local_.fg_collisions = block_.BindCounter(obs.fg_collisions);
  local_.long_allocs = block_.BindCounter(obs.long_allocs);
  local_.long_alloc_failures = block_.BindCounter(obs.long_alloc_failures);
  for (int i = 0; i < 5; ++i) {
    local_.evictions[i] = block_.BindCounter(obs.evictions[i]);
    local_.residency[i] = block_.BindLatency(obs.residency[i]);
  }
  local_.report_cells = block_.BindHistogram(obs.report_cells);
  local_.live_entries = block_.BindGauge(obs.live_entries);
  local_.cycles = block_.BindCounter(obs.cycles);
}

MgpvCache::MgpvCache(const MgpvConfig& config, MgpvSink* sink)
    : config_(config), sink_(sink) {
  assert(sink != nullptr);
  assert(config.short_buffers > 0 && config.short_size > 0);
  entries_.resize(config_.short_buffers);
  long_buffers_.resize(config_.long_buffers);
  free_long_.reserve(config_.long_buffers);
  // Stack is initialized full; popping yields the highest index first.
  for (uint32_t i = 0; i < config_.long_buffers; ++i) {
    free_long_.push_back(i);
  }
  // Only a multi-granularity policy indexes the FG table (FgIndexFor).
  if (config_.multi_granularity) {
    fg_table_.resize(config_.fg_table_size);
  }
}

void MgpvCache::EvictCells(Entry& entry, EvictReason reason) {
  const size_t long_cells =
      entry.long_index >= 0 ? long_buffers_[entry.long_index].size() : 0;
  if (entry.short_cells.empty() && long_cells == 0) {
    // Nothing batched (possible right after a previous eviction); still
    // release the long buffer if owned.
    if (entry.long_index >= 0) {
      free_long_.push_back(static_cast<uint32_t>(entry.long_index));
      entry.long_index = -1;
    }
    return;
  }

  MgpvReport report;
  report.cg_key = GroupKey::Of(entry.key, config_.cg);
  report.hash = entry.hash;
  report.reason = reason;
  report.cells.reserve(entry.short_cells.size() + long_cells);
  // Chronological order: the short buffer filled before the long buffer.
  for (const auto& cell : entry.short_cells) {
    report.cells.push_back(cell);
  }
  if (entry.long_index >= 0) {
    auto& long_buf = long_buffers_[entry.long_index];
    for (const auto& cell : long_buf) {
      report.cells.push_back(cell);
    }
    long_buf.clear();
    free_long_.push_back(static_cast<uint32_t>(entry.long_index));
    entry.long_index = -1;
  }
  entry.short_cells.clear();
  report.first_ingest_ns = entry.batch_start_ns;
  report.evict_ns = now_ns_;

  stats_.reports_out++;
  stats_.cells_out += report.cells.size();
  stats_.bytes_out += report.WireBytes(config_.metadata_bytes_per_cell);
  stats_.evictions[static_cast<int>(reason)]++;
  obs::Inc(local_.reports_out);
  obs::Inc(local_.cells_out, report.cells.size());
  obs::Inc(local_.bytes_out, report.WireBytes(config_.metadata_bytes_per_cell));
  obs::Inc(local_.evictions[static_cast<int>(reason)]);
  // Same site as the eviction counter bump: residency counts per cause
  // always equal eviction counts per cause.
  obs::Observe(local_.residency[static_cast<int>(reason)],
               now_ns_ - entry.batch_start_ns);
  obs::Observe(local_.report_cells, static_cast<double>(report.cells.size()));
  if (obs_.trace != nullptr) {
    obs_.trace->Instant(obs_.trace_lane, "mgpv", "evict", "cells", report.cells.size(),
                        "cause", EvictReasonName(reason));
  }
  sink_->OnMgpv(report);
}

uint16_t MgpvCache::FgIndexFor(const InitiatorKey& fg_key) {
  const uint16_t index = static_cast<uint16_t>(fg_key.Crc(0xf60f60u) % config_.fg_table_size);
  FgSlot& slot = fg_table_[index];
  if (!slot.valid || !(slot.key == fg_key)) {
    if (slot.valid) {
      stats_.fg_collisions++;
      obs::Inc(local_.fg_collisions);
    }
    slot.valid = true;
    slot.key = fg_key;
    FgSyncMessage sync;
    sync.index = index;
    sync.key = fg_key;
    stats_.fg_syncs++;
    stats_.bytes_out += FgSyncMessage::kWireBytes;
    obs::Inc(local_.fg_syncs);
    obs::Inc(local_.bytes_out, FgSyncMessage::kWireBytes);
    if (obs_.trace != nullptr) {
      obs_.trace->Instant(obs_.trace_lane, "mgpv", "fg_sync", "index", index);
    }
    sink_->OnFgSync(sync);
  }
  return index;
}

void MgpvCache::AgeScan() {
  if (config_.aging_timeout_ns == 0) {
    return;
  }
  // Under pool pressure the graceful-overload mode tightens the aging
  // timeout so idle batches drain (and release long buffers) sooner.
  uint64_t timeout_ns = config_.aging_timeout_ns;
  if (config_.graceful_overload && free_long_.empty() &&
      config_.pressure_aging_divisor > 1) {
    timeout_ns /= config_.pressure_aging_divisor;
  }
  for (uint32_t i = 0; i < config_.aging_scan_per_packet; ++i) {
    Entry& entry = entries_[scan_cursor_];
    if (++scan_cursor_ == config_.short_buffers) {
      scan_cursor_ = 0;
    }
    if (entry.valid && now_ns_ > entry.last_access_ns &&
        now_ns_ - entry.last_access_ns > timeout_ns) {
      EvictCells(entry, EvictReason::kAging);
      entry.valid = false;
      --live_entries_;
      obs::Set(local_.live_entries, static_cast<double>(live_entries_));
    }
  }
}

bool MgpvCache::PressureEvict(const Entry& current) {
  // Priority eviction: among the next pressure_evict_scan entries, evict the
  // stalest one that owns a long buffer (releasing it for the current,
  // actively growing batch). Deterministic — the cursor and staleness depend
  // only on the packet stream.
  Entry* victim = nullptr;
  for (uint32_t i = 0; i < config_.pressure_evict_scan; ++i) {
    Entry& entry = entries_[pressure_cursor_];
    if (++pressure_cursor_ == config_.short_buffers) {
      pressure_cursor_ = 0;
    }
    if (entry.valid && entry.long_index >= 0 && &entry != &current &&
        (victim == nullptr || entry.last_access_ns < victim->last_access_ns)) {
      victim = &entry;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  EvictCells(*victim, EvictReason::kAging);
  victim->valid = false;
  --live_entries_;
  obs::Set(local_.live_entries, static_cast<double>(live_entries_));
  stats_.pressure_evictions++;
  return true;
}

void MgpvCache::Insert(const PacketRecord& pkt) {
  // Bracket the whole insert (including evictions and their sink delivery)
  // for the {stage="mgpv"} cycle profile; skipped when profiling is off.
  const uint64_t cycles_start = local_.cycles != nullptr ? obs::ReadCycles() : 0;
  now_ns_ = std::max(now_ns_, pkt.timestamp_ns);
  stats_.packets_in++;
  stats_.bytes_in += pkt.wire_bytes;
  obs::Inc(local_.packets_in);
  obs::Inc(local_.bytes_in, pkt.wire_bytes);

  MgpvCell cell;
  cell.size = static_cast<uint16_t>(std::min<uint32_t>(pkt.wire_bytes, 0xffff));
  cell.tstamp = static_cast<uint32_t>(pkt.timestamp_ns);
  cell.direction = pkt.direction;
  cell.full_timestamp_ns = pkt.timestamp_ns;
  // The packet's one key: the cell carries it, and the CG key is its prefix.
  cell.fg_key = InitiatorKey::Of(pkt);
  if (config_.multi_granularity) {
    cell.fg_index = FgIndexFor(cell.fg_key);
  }

  const InitiatorKey key = cell.fg_key.Prefix(config_.cg);
  const uint32_t hash = cell.fg_key.Hash(config_.cg);
  Entry& entry = entries_[hash % config_.short_buffers];

  if (!entry.valid) {
    entry.valid = true;
    entry.key = key;
    entry.hash = hash;
    entry.long_index = -1;
    entry.short_cells.clear();
    ++live_entries_;
    obs::Set(local_.live_entries, static_cast<double>(live_entries_));
  } else if (entry.key != key) {
    // Hash collision with a different group: evict the older entry first
    // (the collision-eviction policy approximates LRU, §5.2).
    EvictCells(entry, EvictReason::kCollision);
    entry.key = key;
    entry.hash = hash;
  }
  entry.last_access_ns = pkt.timestamp_ns;
  if (entry.short_cells.empty()) {
    // Every eviction clears both buffers, so an empty short buffer means
    // this packet starts a fresh batch.
    entry.batch_start_ns = pkt.timestamp_ns;
  }

  // Place the cell: short buffer first, then the long buffer.
  if (entry.short_cells.size() < config_.short_size) {
    entry.short_cells.push_back(cell);
    if (entry.short_cells.size() == config_.short_size && entry.long_index < 0) {
      // Short buffer just filled: likely a long flow; try to grab a long
      // buffer from the stack.
      if (fault_ != nullptr && fault_->PoolExhausted(fault_shard_, now_ns_)) {
        // Injected pool exhaustion: the alloc fails regardless of the real
        // pool state (deterministic — the window is trace-time).
        stats_.long_alloc_failures++;
        stats_.injected_pool_failures++;
        obs::Inc(local_.long_alloc_failures);
        fault_->NoteInjectedPoolExhaustion();
        EvictCells(entry, EvictReason::kShortFull);
      } else {
        if (free_long_.empty() && config_.graceful_overload) {
          // Real exhaustion: shed load gracefully — evict the stalest
          // long-buffer holder to free a buffer for this growing batch.
          PressureEvict(entry);
        }
        if (!free_long_.empty()) {
          entry.long_index = static_cast<int32_t>(free_long_.back());
          free_long_.pop_back();
          stats_.long_allocs++;
          obs::Inc(local_.long_allocs);
        } else {
          stats_.long_alloc_failures++;
          obs::Inc(local_.long_alloc_failures);
          EvictCells(entry, EvictReason::kShortFull);
        }
      }
    }
  } else if (entry.long_index >= 0) {
    auto& long_buf = long_buffers_[entry.long_index];
    long_buf.push_back(cell);
    if (long_buf.size() >= config_.long_size) {
      // Long buffer filled: short + long are evicted together so both can
      // be reused (§5.2).
      EvictCells(entry, EvictReason::kLongFull);
    }
  } else {
    // Short is full and no long buffer could be obtained earlier: the short
    // buffer was already evicted, so it has room again. (Reached only via
    // the eviction above resetting short_cells; defensive fallback.)
    entry.short_cells.push_back(cell);
  }

  AgeScan();
  if (local_.cycles != nullptr) {
    local_.cycles->delta += obs::ReadCycles() - cycles_start;
  }
  block_.NotePacket();
}

void MgpvCache::Flush() {
  for (auto& entry : entries_) {
    if (entry.valid) {
      EvictCells(entry, EvictReason::kFlush);
      entry.valid = false;
    }
  }
  live_entries_ = 0;
  obs::Set(local_.live_entries, 0.0);
  block_.Flush();
}

MgpvEpochInfo MgpvCache::RotateEpoch() {
  // Accounting boundary only: fold the hot-tier deltas so a boundary read
  // of the registry is exact, then snapshot. No evictions — the cache's
  // state is bounded by construction (fixed buffers + aging), so carrying
  // batches across epochs costs nothing and preserves one-shot exactness.
  block_.Flush();
  ++epoch_;
  obs::Set(obs_.epoch, static_cast<double>(epoch_));
  MgpvEpochInfo info;
  info.epoch = epoch_;
  info.occupancy = Occupancy();
  info.live_entries = live_entries_;
  info.free_long_buffers = free_long_.size();
  info.trace_now_ns = now_ns_;
  info.stats = stats_;
  return info;
}

double MgpvCache::Occupancy() const {
  uint64_t valid = 0;
  for (const auto& entry : entries_) {
    if (entry.valid) {
      ++valid;
    }
  }
  return static_cast<double>(valid) / static_cast<double>(entries_.size());
}

double MgpvCache::BufferEfficiency(uint64_t window_ns) const {
  uint64_t valid = 0;
  uint64_t active = 0;
  for (const auto& entry : entries_) {
    if (!entry.valid) {
      continue;
    }
    ++valid;
    if (now_ns_ - entry.last_access_ns <= window_ns) {
      ++active;
    }
  }
  return valid == 0 ? 1.0 : static_cast<double>(active) / static_cast<double>(valid);
}

}  // namespace superfe
