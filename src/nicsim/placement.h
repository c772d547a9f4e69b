// Group-table placement across the NFP memory hierarchy (§6.2, equations
// 3-5): assign each per-group state item to a memory level, minimizing total
// access latency subject to the 512-bit bus constraint and level capacity.
//
// The paper solves this with Gurobi; the instance is tiny (|S| <= a few
// dozen states, 4 levels), so we solve it exactly with branch-and-bound and
// fall back to a latency-greedy assignment if the node budget is exceeded.
#ifndef SUPERFE_NICSIM_PLACEMENT_H_
#define SUPERFE_NICSIM_PLACEMENT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "nicsim/nfp.h"
#include "policy/compile.h"

namespace superfe {

struct PlacementProblem {
  std::vector<StateItem> states;  // From NicProgram::states.
  NfpArch arch;

  // Expected concurrent groups per granularity instance and the number of
  // instances (granularity-chain length); capacity constraints use their
  // product.
  uint32_t groups_per_granularity = 8192;
  uint32_t granularity_instances = 1;

  // Group-table width (entries per hash index) per level, n_m in eq. 5.
  // Wider tables lower the collision rate but tighten the bus constraint.
  std::array<uint32_t, kNumMemLevels> table_width = {4, 4, 2, 1};

  // Per-entry key bytes co-located with the states (eq. 5 counts them
  // against the bus budget).
  uint32_t key_bytes = 13;
};

struct PlacementResult {
  std::vector<MemLevel> assignment;            // Parallel to problem.states.
  std::array<uint64_t, kNumMemLevels> level_bytes{};  // Per-group state bytes.
  uint64_t objective = 0;  // Sum over states of accesses * latency.
  bool optimal = true;     // False if the greedy fallback was used.

  // Memory-latency cycles incurred per packet: per occupied level, one
  // read-modify-write of the words the packet actually touches there (bus
  // beats of 64 bytes). Spreading hot state across fast levels shortens
  // this; piling everything into EMEM pays multi-beat transfers.
  uint64_t LatencyPerPacket(const NfpArch& arch,
                            const std::vector<StateItem>& states) const;

  // Fraction of total hierarchical memory in use (Table 4 NIC column).
  double MemoryUtilization(const PlacementProblem& problem) const;
};

Result<PlacementResult> SolvePlacement(const PlacementProblem& problem);

// Group-table widths (entries per hash index) appropriate for a per-group
// state footprint: wide tables (fast parallel lookup) for small states, as
// in the paper's 16-byte-entry example; width 1 once states outgrow the
// 512-bit bus budget.
std::array<uint32_t, kNumMemLevels> DefaultTableWidths(uint32_t state_bytes_per_group);

}  // namespace superfe

#endif  // SUPERFE_NICSIM_PLACEMENT_H_
