// Cycle cost model for feature computation on NFP microengines, with the
// three §6.2 optimizations as switchable flags (the Fig 17 ablation):
//   1. reuse the switch-computed hash (skips per-cell hashing),
//   2. thread-level latency hiding (8 threads, 2-cycle context switch),
//   3. division elimination (1500-cycle software divide -> comparison).
#ifndef SUPERFE_NICSIM_COST_MODEL_H_
#define SUPERFE_NICSIM_COST_MODEL_H_

#include <cstdint>

#include "nicsim/nfp.h"

namespace superfe {

struct NicOptimizations {
  bool reuse_switch_hash = true;
  bool multithreading = true;
  bool eliminate_division = true;

  static NicOptimizations None() { return {false, false, false}; }
  static NicOptimizations All() { return {true, true, true}; }
};

struct CycleCosts {
  uint32_t alu = 1;
  uint32_t hash = 110;          // CRC over a five-tuple in software.
  uint32_t division = 1500;     // Compiler-provided soft divide (§6.2).
  uint32_t division_opt = 4;    // Comparison-trick replacement.
  uint32_t context_switch = 2;
  uint32_t dispatch = 24;       // Per-cell parse/dispatch overhead.
  // Residual per-cell dispatch under the SoA batch path: the reducer
  // variant/field resolution is hoisted to once per group run (costed at
  // `dispatch` per run), leaving only the vector-lane issue per cell.
  uint32_t dispatch_batched = 6;
  uint32_t report_overhead = 60;  // Per-MGPV-report DMA + header handling.
};

// Cycle totals split by operator family (the Table-5 categories): where a
// NIC's service time actually goes. Fractions of Total() attribute the
// measured worker-service latency per family.
struct NicCycleBreakdown {
  uint64_t dispatch = 0;         // Per-cell parse/dispatch.
  uint64_t alu = 0;              // Arithmetic feature updates.
  uint64_t division = 0;         // Soft divides (or their comparison trick).
  uint64_t hash = 0;             // Group-lookup hashing not covered by reuse.
  uint64_t report_overhead = 0;  // Per-report DMA + header handling.
  uint64_t memory = 0;           // State-memory access latency.

  uint64_t Total() const {
    return dispatch + alu + division + hash + report_overhead + memory;
  }
  void Merge(const NicCycleBreakdown& other) {
    dispatch += other.dispatch;
    alu += other.alu;
    division += other.division;
    hash += other.hash;
    report_overhead += other.report_overhead;
    memory += other.memory;
  }
};

// Expected fraction of group-table lookups that detour to DRAM when
// `groups` uniformly-hashed groups live in a table of `indices` bucket
// chains of `width` entries each (§6.2 collision handling). Poisson
// occupancy model: a group whose bucket holds more than `width` occupants
// spills to DRAM if it arrived after the chain filled; assuming lookups are
// spread uniformly over groups, the detour-lookup fraction equals the
// expected fraction of groups living in DRAM. The cluster cost report uses
// this as the single-NIC baseline a scale-out run is compared against.
double ExpectedDramDetourRate(double groups, double indices, double width);

// Per-cell work description, produced by the execution engine.
struct CellWork {
  uint32_t alu_ops = 0;
  uint32_t divisions = 0;
  uint32_t mem_accesses = 0;      // Distinct state-memory round trips.
  uint64_t mem_latency_cycles = 0;  // Sum of access latencies (placement-aware).
  // Group-lookup hash computations needed (one per granularity). With the
  // reuse optimization the switch-provided hash covers one of them.
  uint32_t hashes = 1;
};

// Work description for one SoA batch (amortized accounting): per-cell
// arithmetic stays per cell, but dispatch, hashing, and state-memory
// traffic are paid once per contiguous group *run* rather than per cell.
struct BatchWork {
  CellWork per_cell;
  uint64_t cells = 0;     // Total cells in the batch.
  uint64_t runs = 0;      // Group runs across all granularities.
  uint64_t cg_runs = 0;   // Runs at the coarse granularity (hash reusable).
  uint64_t dram_runs = 0;  // Runs whose group lookup detoured to DRAM.
  uint32_t granularities = 1;  // Chain length (per_cell spans the chain).
};

// Accumulates work and converts it to wall-clock throughput for a given
// core count.
class NicPerfModel {
 public:
  NicPerfModel(const NfpArch& arch, const NicOptimizations& opts)
      : arch_(arch), opts_(opts) {}

  void AccountCell(const CellWork& work);
  // Amortized accounting for one SoA batch; keeps cells() exact so
  // Table-5 shares and throughput remain per-cell meaningful.
  void AccountBatch(const BatchWork& work);
  void AccountReport();

  // Folds another model's accounted work into this one (cluster members
  // sum to the same totals a single NIC processing every cell would have).
  void Merge(const NicPerfModel& other);

  uint64_t cells() const { return cells_; }
  uint64_t compute_cycles() const { return compute_cycles_; }
  uint64_t memory_cycles() const { return memory_cycles_; }
  // Per-family cycle attribution; breakdown.Total() ==
  // compute_cycles() + memory_cycles().
  const NicCycleBreakdown& breakdown() const { return breakdown_; }

  // Effective core-cycles consumed, after thread-level latency hiding.
  uint64_t EffectiveCycles() const;

  // Packets (cells) per second achievable with `cores` microengines; the
  // NBI distributes per-IP so scaling is near-linear with a small
  // serialization term.
  double ThroughputPps(uint32_t cores) const;

  const NicOptimizations& optimizations() const { return opts_; }
  const CycleCosts& costs() const { return costs_; }

 private:
  NfpArch arch_;
  NicOptimizations opts_;
  CycleCosts costs_;

  uint64_t cells_ = 0;
  uint64_t reports_ = 0;
  uint64_t compute_cycles_ = 0;
  uint64_t memory_cycles_ = 0;
  uint64_t mem_accesses_ = 0;
  NicCycleBreakdown breakdown_;
};

}  // namespace superfe

#endif  // SUPERFE_NICSIM_COST_MODEL_H_
