#include "nicsim/cost_model.h"

#include <algorithm>
#include <cmath>

namespace superfe {

double ExpectedDramDetourRate(double groups, double indices, double width) {
  if (groups <= 0.0 || indices <= 0.0) {
    return 0.0;
  }
  // A random group shares its bucket with X ~ Poisson(lambda) other groups
  // (lambda = mean occupancy of the remaining groups). Its arrival rank in
  // the chain is uniform over the X + 1 occupants, so it lives in DRAM with
  // probability max(0, X + 1 - width) / (X + 1). Sum the pmf until the
  // tail mass is negligible.
  const double lambda = (groups > 1.0 ? groups - 1.0 : 0.0) / indices;
  const int limit =
      static_cast<int>(std::ceil(lambda + 12.0 * std::sqrt(lambda) + 32.0));
  double pmf = std::exp(-lambda);  // P(X = 0).
  double rate = 0.0;
  for (int k = 0; k <= limit; ++k) {
    const double occupants = static_cast<double>(k) + 1.0;
    if (occupants > width) {
      rate += pmf * (occupants - width) / occupants;
    }
    pmf *= lambda / (static_cast<double>(k) + 1.0);  // -> P(X = k + 1).
  }
  return std::min(rate, 1.0);
}

const char* MemLevelName(MemLevel level) {
  switch (level) {
    case MemLevel::kCls:
      return "CLS";
    case MemLevel::kCtm:
      return "CTM";
    case MemLevel::kImem:
      return "IMEM";
    case MemLevel::kEmem:
      return "EMEM";
  }
  return "?";
}

void NicPerfModel::AccountCell(const CellWork& work) {
  ++cells_;
  const uint64_t alu_cycles = static_cast<uint64_t>(work.alu_ops) * costs_.alu;
  const uint64_t division_cycles =
      static_cast<uint64_t>(work.divisions) *
      (opts_.eliminate_division ? costs_.division_opt : costs_.division);
  uint32_t hashes = work.hashes;
  if (opts_.reuse_switch_hash && hashes > 0) {
    --hashes;  // The switch-computed hash index rides along with the MGPV.
  }
  const uint64_t hash_cycles = static_cast<uint64_t>(hashes) * costs_.hash;
  compute_cycles_ += costs_.dispatch + alu_cycles + division_cycles + hash_cycles;
  memory_cycles_ += work.mem_latency_cycles;
  mem_accesses_ += work.mem_accesses;
  breakdown_.dispatch += costs_.dispatch;
  breakdown_.alu += alu_cycles;
  breakdown_.division += division_cycles;
  breakdown_.hash += hash_cycles;
  breakdown_.memory += work.mem_latency_cycles;
}

void NicPerfModel::AccountBatch(const BatchWork& work) {
  cells_ += work.cells;
  // Arithmetic is genuinely per cell — vectorization changes issue width,
  // not operation count — so the §6.2 ablation (division elimination vs
  // hash reuse) keeps its per-cell meaning.
  const uint64_t alu_cycles =
      static_cast<uint64_t>(work.per_cell.alu_ops) * costs_.alu * work.cells;
  const uint64_t division_cycles =
      static_cast<uint64_t>(work.per_cell.divisions) *
      (opts_.eliminate_division ? costs_.division_opt : costs_.division) *
      work.cells;
  // One full dispatch per group run (field/variant resolution, table
  // lookup) plus the residual per-cell lane issue.
  const uint64_t dispatch_cycles =
      work.runs * costs_.dispatch + work.cells * costs_.dispatch_batched;
  // One group-lookup hash per run; the switch-shipped hash covers the
  // coarse-granularity runs when reuse is on.
  uint64_t hashed_runs = work.runs;
  if (opts_.reuse_switch_hash) {
    hashed_runs -= std::min(work.cg_runs, hashed_runs);
  }
  const uint64_t hash_cycles = hashed_runs * costs_.hash;
  compute_cycles_ += dispatch_cycles + alu_cycles + division_cycles + hash_cycles;
  // State memory: the per-cell latency spans the whole granularity chain;
  // a run touches one granularity's state once, so charge the chain
  // latency once per `granularities` runs, plus the DRAM detours.
  const uint32_t chain = std::max(work.granularities, 1u);
  const uint64_t mem_cycles =
      work.per_cell.mem_latency_cycles * work.runs / chain +
      static_cast<uint64_t>(arch_.dram_latency_cycles) * work.dram_runs;
  memory_cycles_ += mem_cycles;
  mem_accesses_ +=
      std::max<uint64_t>(
          static_cast<uint64_t>(work.per_cell.mem_accesses) * work.runs / chain,
          work.runs) +
      work.dram_runs;
  breakdown_.dispatch += dispatch_cycles;
  breakdown_.alu += alu_cycles;
  breakdown_.division += division_cycles;
  breakdown_.hash += hash_cycles;
  breakdown_.memory += mem_cycles;
}

void NicPerfModel::AccountReport() {
  ++reports_;
  compute_cycles_ += costs_.report_overhead;
  breakdown_.report_overhead += costs_.report_overhead;
}

void NicPerfModel::Merge(const NicPerfModel& other) {
  cells_ += other.cells_;
  reports_ += other.reports_;
  compute_cycles_ += other.compute_cycles_;
  memory_cycles_ += other.memory_cycles_;
  mem_accesses_ += other.mem_accesses_;
  breakdown_.Merge(other.breakdown_);
}

uint64_t NicPerfModel::EffectiveCycles() const {
  if (!opts_.multithreading) {
    // Single thread per core: memory stalls serialize with compute.
    return compute_cycles_ + memory_cycles_;
  }
  // 8 threads per core hide memory latency: while one thread waits on a
  // state read, others compute. The core is busy for at least the compute
  // time plus a 2-cycle context switch per memory access; it can never beat
  // the aggregate memory pipeline divided across threads.
  const uint64_t switched = compute_cycles_ + mem_accesses_ * costs_.context_switch;
  const uint64_t mem_bound = memory_cycles_ / arch_.threads_per_core;
  return std::max(switched, mem_bound);
}

double NicPerfModel::ThroughputPps(uint32_t cores) const {
  if (cells_ == 0 || cores == 0) {
    return 0.0;
  }
  const double cycles_per_cell =
      static_cast<double>(EffectiveCycles()) / static_cast<double>(cells_);
  const double core_hz = arch_.clock_ghz * 1e9;
  // Near-linear NBI scaling with a small serialization term (shared DMA
  // descriptors), visible only at high core counts.
  const double scaling = static_cast<double>(cores) / (1.0 + 0.0008 * cores);
  return core_hz / cycles_per_cell * scaling;
}

}  // namespace superfe
