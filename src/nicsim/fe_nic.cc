#include "nicsim/fe_nic.h"

#include <algorithm>
#include <string>

#include "obs/cycles.h"

namespace superfe {

FeNicObs FeNicObs::Create(obs::MetricsRegistry* registry, uint32_t nic_index,
                          bool profile) {
  FeNicObs o;
  if (registry == nullptr) {
    return o;
  }
  o.registry = registry;
  o.block_name = "nic-" + std::to_string(nic_index);
  const obs::LabelSet labels = {{"nic", std::to_string(nic_index)}};
  o.reports = registry->GetCounter("superfe_nic_reports_total", labels,
                                   "MGPV reports consumed by the NIC");
  o.cells = registry->GetCounter("superfe_nic_cells_total", labels,
                                 "MGPV cells processed by the NIC");
  o.fg_syncs = registry->GetCounter("superfe_nic_fg_syncs_total", labels,
                                    "FG-table sync messages applied");
  o.vectors_emitted = registry->GetCounter("superfe_nic_vectors_emitted_total", labels,
                                           "Feature vectors emitted");
  o.dram_detours = registry->GetCounter("superfe_nic_dram_detours_total", labels,
                                        "Group lookups that spilled to DRAM");
  if (profile) {
    o.cycles_feature =
        registry->GetCounter("superfe_cycles_total", {{"stage", "feature_kernels"}},
                             "Measured worker cycles by pipeline stage");
    o.cycles_sync =
        registry->GetCounter("superfe_cycles_total", {{"stage", "sync_broadcast"}},
                             "Measured worker cycles by pipeline stage");
  }
  return o;
}

void FeNic::set_obs(const FeNicObs& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  obs_ = obs;
  block_.Init(obs.registry, obs.block_name, obs.flush_packets);
  local_ = LocalObs{};
  local_.reports = block_.BindCounter(obs.reports);
  local_.cells = block_.BindCounter(obs.cells);
  local_.fg_syncs = block_.BindCounter(obs.fg_syncs);
  local_.vectors_emitted = block_.BindCounter(obs.vectors_emitted);
  local_.dram_detours = block_.BindCounter(obs.dram_detours);
  local_.cycles_feature = block_.BindCounter(obs.cycles_feature);
  local_.cycles_sync = block_.BindCounter(obs.cycles_sync);
}

Result<std::unique_ptr<FeNic>> FeNic::Create(const CompiledPolicy& compiled,
                                             const FeNicConfig& config, FeatureSink* sink) {
  auto plan = ExecPlan::FromProgram(compiled.nic_program);
  if (!plan.ok()) {
    return plan.status();
  }

  PlacementProblem problem;
  // States are already expanded per granularity instance by the compiler.
  problem.states = compiled.nic_program.states;
  problem.arch = config.arch;
  problem.groups_per_granularity = config.groups_hint;
  problem.granularity_instances = 1;
  problem.key_bytes = compiled.switch_program.FgKeyBytes();
  problem.table_width = DefaultTableWidths(compiled.nic_program.StateBytesPerGroup());
  auto placement = SolvePlacement(problem);
  if (!placement.ok()) {
    return placement.status();
  }

  return std::unique_ptr<FeNic>(new FeNic(compiled, config, sink, std::move(plan).value(),
                                          std::move(problem), std::move(placement).value()));
}

FeNic::FeNic(const CompiledPolicy& compiled, const FeNicConfig& config, FeatureSink* sink,
             ExecPlan plan, PlacementProblem problem, PlacementResult placement)
    : compiled_(compiled),
      config_(config),
      sink_(sink),
      plan_(std::move(plan)),
      placement_problem_(std::move(problem)),
      placement_(std::move(placement)),
      perf_(config.arch, config.optimizations) {
  const auto& grans = compiled_.nic_program.granularities;
  tables_.reserve(grans.size());
  for (size_t i = 0; i < grans.size(); ++i) {
    tables_.push_back(std::make_unique<GroupTable<GroupState>>(config_.group_table_indices,
                                                               config_.group_table_width));
  }

  // Precompute per-cell work from the compiled program and the placement
  // (state items are already expanded per granularity instance).
  base_cell_work_.alu_ops = compiled_.nic_program.AluOpsPerPacket();
  base_cell_work_.divisions = compiled_.nic_program.DivisionsPerPacket();
  base_cell_work_.mem_latency_cycles =
      placement_.LatencyPerPacket(config_.arch, placement_problem_.states);
  uint32_t levels_used = 0;
  for (uint64_t bytes : placement_.level_bytes) {
    if (bytes > 0) {
      ++levels_used;
    }
  }
  base_cell_work_.mem_accesses = std::max<uint32_t>(levels_used, 1);
  base_cell_work_.hashes = static_cast<uint32_t>(grans.size());
}

void FeNic::OnFgSync(const FgSyncMessage& sync) {
  // The NIC's table copy is modeled through the cells' shadow FG tuples;
  // the sync message itself costs a control-path update.
  (void)sync;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t cycles_start = local_.cycles_sync != nullptr ? obs::ReadCycles() : 0;
  stats_.fg_syncs++;
  obs::Inc(local_.fg_syncs);
  if (local_.cycles_sync != nullptr) {
    local_.cycles_sync->delta += obs::ReadCycles() - cycles_start;
  }
}

void FeNic::OnMgpv(const MgpvReport& report) { OnMgpvBatch(&report, 1); }

void FeNic::OnMgpvBatch(const MgpvReport* reports, size_t count) {
  if (count == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Bracket the batch (idle eviction + all feature kernels) for the
  // {stage="feature_kernels"} cycle profile; skipped when profiling is off.
  const uint64_t cycles_start = local_.cycles_feature != nullptr ? obs::ReadCycles() : 0;
  size_t total_cells = 0;
  for (size_t r = 0; r < count; ++r) {
    total_cells += reports[r].cells.size();
  }
  ProcessReportsLocked(reports, count);
  if (local_.cycles_feature != nullptr) {
    local_.cycles_feature->delta += obs::ReadCycles() - cycles_start;
  }
  // Cells count as packets for the auto-flush cadence.
  block_.NotePackets(total_cells);
}

void FeNic::ProcessReportsLocked(const MgpvReport* reports, size_t count) {
  if (config_.idle_timeout_ns > 0) {
    // Idle eviction is decided at report boundaries; batch per report so
    // eviction interleaves with the cells in arrival order.
    for (size_t r = 0; r < count; ++r) {
      ProcessBatchLocked(&reports[r], 1);
    }
    return;
  }
  ProcessBatchLocked(reports, count);
}

void FeNic::ProcessBatchLocked(const MgpvReport* reports, size_t count) {
  size_t total_cells = 0;
  for (size_t r = 0; r < count; ++r) {
    const MgpvReport& report = reports[r];
    stats_.reports++;
    obs::Inc(local_.reports);
    perf_.AccountReport();
    if (!report.cells.empty()) {
      EvictIdleGroupsLocked(report.cells.back().full_timestamp_ns);
    }
    total_cells += report.cells.size();
  }
  if (total_cells == 0) {
    return;
  }
  stats_.cells += total_cells;
  obs::Inc(local_.cells, total_cells);

  batch_.Assemble(reports, count);
  if (compiled_.nic_program.collect.per_packet) {
    ProcessRowsLocked(reports);
    return;
  }

  // Walk each granularity's contiguous runs of the sorted batch: one table
  // access and one UpdateGroupBatch per (group, run) instead of per cell.
  const auto& grans = compiled_.nic_program.granularities;
  const Granularity cg = reports[0].cg_key.granularity;
  uint64_t runs_total = 0;
  uint64_t cg_runs = 0;
  uint64_t dram_runs = 0;
  for (size_t gi = 0; gi < grans.size(); ++gi) {
    const int prefix = InitiatorKey::PrefixBytes(grans[gi]);
    batch_.SortByPrefix(prefix);
    size_t begin = 0;
    while (begin < total_cells) {
      size_t end = begin + 1;
      while (end < total_cells && batch_.SamePrefix(begin, end, prefix)) {
        ++end;
      }
      bool via_dram = false;
      GroupState& group = GroupOfLocked(gi, reports, begin, via_dram);
      if (via_dram) {
        ++dram_runs;
      }
      UpdateGroupBatch(plan_, gi, group, batch_, begin, end);
      ++runs_total;
      if (grans[gi] == cg) {
        ++cg_runs;
      }
      begin = end;
    }
  }

  BatchWork work;
  work.per_cell = base_cell_work_;
  work.cells = total_cells;
  work.runs = runs_total;
  work.cg_runs = cg_runs;
  work.dram_runs = dram_runs;
  work.granularities = static_cast<uint32_t>(grans.size());
  perf_.AccountBatch(work);
}

void FeNic::ProcessRowsLocked(const MgpvReport* reports) {
  const auto& grans = compiled_.nic_program.granularities;
  const Granularity fg = compiled_.switch_program.fg();
  for (size_t row = 0; row < batch_.rows(); ++row) {
    CellWork work = base_cell_work_;
    std::array<const GroupState*, 4> touched{};
    for (size_t gi = 0; gi < grans.size(); ++gi) {
      bool via_dram = false;
      GroupState& group = GroupOfLocked(gi, reports, row, via_dram);
      if (via_dram) {
        work.mem_accesses += 1;
        work.mem_latency_cycles += config_.arch.dram_latency_cycles;
      }
      UpdateGroupBatch(plan_, gi, group, batch_, row, row + 1);
      touched[gi] = &group;
    }
    perf_.AccountCell(work);

    const MgpvCell& cell = *batch_.cells[row];
    stats_.vectors_emitted++;
    obs::Inc(local_.vectors_emitted);
    sink_->OnFeatureVector(AssembleVector(plan_, tables_, touched, cell.fg_key,
                                          GroupKey::Of(cell.fg_key, fg),
                                          cell.full_timestamp_ns));
  }
}

GroupState& FeNic::GroupOfLocked(size_t gi, const MgpvReport* reports, size_t row,
                                 bool& via_dram) {
  const Granularity g = compiled_.nic_program.granularities[gi];
  GroupKey key;
  uint32_t hash = 0;
  if (g == reports[0].cg_key.granularity) {
    const MgpvReport& report = reports[batch_.ReportOf(row)];
    key = report.cg_key;
    hash = report.hash;
  } else {
    const InitiatorKey& fg_key = batch_.cells[row]->fg_key;
    key = GroupKey::Of(fg_key, g);
    hash = fg_key.Hash(g);
  }
  GroupState& group = tables_[gi]->FindOrCreate(
      key, hash, [&] { return GroupState::Make(plan_, gi, config_.exec); }, via_dram);
  if (via_dram) {
    stats_.dram_detours++;
    obs::Inc(local_.dram_detours);
  }
  return group;
}

void FeNic::EmitVector(size_t unit_gi, const GroupKey& unit_key, const GroupState& unit_group) {
  std::array<const GroupState*, 4> groups{};
  groups[unit_gi] = &unit_group;
  stats_.vectors_emitted++;
  obs::Inc(local_.vectors_emitted);
  sink_->OnFeatureVector(AssembleVector(plan_, tables_, groups, unit_group.last_fg_key,
                                        unit_key, unit_group.last_seen_ns));
}

void FeNic::EvictIdleGroupsLocked(uint64_t now_ns) {
  if (config_.idle_timeout_ns == 0 || compiled_.nic_program.collect.per_packet) {
    return;
  }
  const Granularity unit = compiled_.nic_program.collect.unit;
  const auto& grans = compiled_.nic_program.granularities;
  for (size_t gi = 0; gi < grans.size(); ++gi) {
    if (grans[gi] != unit) {
      continue;
    }
    std::vector<GroupKey> expired;
    tables_[gi]->ForEach([&](const GroupKey& key, GroupState& group) {
      if (now_ns > group.last_seen_ns &&
          now_ns - group.last_seen_ns > config_.idle_timeout_ns) {
        EmitVector(gi, key, group);
        expired.push_back(key);
      }
    });
    for (const auto& key : expired) {
      tables_[gi]->Erase(key, key.Hash());
    }
  }
}

void FeNic::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!compiled_.nic_program.collect.per_packet) {
    const Granularity unit = compiled_.nic_program.collect.unit;
    const auto& grans = compiled_.nic_program.granularities;
    for (size_t gi = 0; gi < grans.size(); ++gi) {
      if (grans[gi] != unit) {
        continue;
      }
      tables_[gi]->ForEach(
          [&](const GroupKey& key, GroupState& group) { EmitVector(gi, key, group); });
    }
  }
  for (auto& table : tables_) {
    table->Clear();
  }
  block_.Flush();
}

uint64_t FeNic::AbandonState() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t abandoned = 0;
  if (!compiled_.nic_program.collect.per_packet) {
    const Granularity unit = compiled_.nic_program.collect.unit;
    const auto& grans = compiled_.nic_program.granularities;
    for (size_t gi = 0; gi < grans.size(); ++gi) {
      if (grans[gi] == unit) {
        abandoned += tables_[gi]->size();
      }
    }
  }
  for (auto& table : tables_) {
    table->Clear();
  }
  block_.Flush();
  return abandoned;
}

FeNicStats FeNic::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

NicPerfModel FeNic::PerfSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return perf_;
}

std::vector<size_t> FeNic::GroupCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> counts;
  counts.reserve(tables_.size());
  for (const auto& table : tables_) {
    counts.push_back(table->size());
  }
  return counts;
}

std::vector<GroupTableStats> FeNic::TableStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<GroupTableStats> stats;
  stats.reserve(tables_.size());
  for (const auto& table : tables_) {
    stats.push_back(table->stats());
  }
  return stats;
}

}  // namespace superfe
