#include "nicsim/placement.h"

#include <algorithm>
#include <numeric>

namespace superfe {
namespace {

struct LevelBudget {
  uint64_t bus_state_bytes = 0;  // Max per-group state bytes (bus constraint).
  uint64_t cap_state_bytes = 0;  // Max per-group state bytes (capacity).
  bool multi_beat = false;       // EMEM: bus constraint waived (multi-beat).
};

// Per-group state-byte budget for each level under eq. 5 and capacity.
std::array<LevelBudget, kNumMemLevels> ComputeBudgets(const PlacementProblem& p) {
  std::array<LevelBudget, kNumMemLevels> budgets{};
  const uint64_t groups =
      static_cast<uint64_t>(p.groups_per_granularity) * p.granularity_instances;
  for (int m = 0; m < kNumMemLevels; ++m) {
    const MemLevelSpec& spec = p.arch.memories[m];
    const uint32_t width = std::max<uint32_t>(p.table_width[m], 1);
    LevelBudget& b = budgets[m];
    b.multi_beat = spec.level == MemLevel::kEmem;
    if (b.multi_beat) {
      b.bus_state_bytes = UINT64_MAX;  // DRAM-backed; entries span beats.
    } else {
      const uint64_t per_entry = spec.bus_bytes / width;
      b.bus_state_bytes = per_entry > p.key_bytes ? per_entry - p.key_bytes : 0;
    }
    const uint64_t cap_per_group = groups > 0 ? spec.capacity_bytes / groups : UINT64_MAX;
    b.cap_state_bytes = cap_per_group > p.key_bytes ? cap_per_group - p.key_bytes : 0;
    if (b.multi_beat) {
      // EMEM spills to DRAM, so capacity is effectively the DRAM size.
      const uint64_t dram_per_group =
          groups > 0 ? p.arch.dram_capacity_bytes / groups : UINT64_MAX;
      b.cap_state_bytes = dram_per_group > p.key_bytes ? dram_per_group - p.key_bytes : 0;
    }
  }
  return budgets;
}

struct Solver {
  const PlacementProblem& problem;
  std::array<LevelBudget, kNumMemLevels> budgets;
  std::vector<size_t> order;  // State indices, most-accessed first.
  std::array<uint64_t, kNumMemLevels> used{};
  std::vector<int> assignment;       // Working assignment (by state index).
  std::vector<int> best_assignment;  // Best found.
  uint64_t best_cost = UINT64_MAX;
  uint64_t nodes = 0;
  static constexpr uint64_t kNodeBudget = 500000;

  bool Fits(size_t state_idx, int level) const {
    const uint64_t bytes = problem.states[state_idx].bytes;
    const LevelBudget& b = budgets[level];
    return used[level] + bytes <= b.bus_state_bytes && used[level] + bytes <= b.cap_state_bytes;
  }

  uint64_t StateCost(size_t state_idx, int level) const {
    const auto& s = problem.states[state_idx];
    const uint64_t accesses = std::max<uint32_t>(s.accesses_per_packet, 1);
    return accesses * problem.arch.memories[level].latency_cycles;
  }

  // Lower bound for the remaining states: every one at the cheapest level.
  uint64_t LowerBound(size_t depth) const {
    const uint32_t min_latency = problem.arch.memories[0].latency_cycles;
    uint64_t bound = 0;
    for (size_t i = depth; i < order.size(); ++i) {
      const auto& s = problem.states[order[i]];
      bound += static_cast<uint64_t>(std::max<uint32_t>(s.accesses_per_packet, 1)) * min_latency;
    }
    return bound;
  }

  void Dfs(size_t depth, uint64_t cost) {
    if (++nodes > kNodeBudget || cost >= best_cost) {
      return;
    }
    if (depth == order.size()) {
      best_cost = cost;
      best_assignment = assignment;
      return;
    }
    if (cost + LowerBound(depth) >= best_cost) {
      return;
    }
    const size_t idx = order[depth];
    for (int level = 0; level < kNumMemLevels; ++level) {
      if (!Fits(idx, level)) {
        continue;
      }
      used[level] += problem.states[idx].bytes;
      assignment[idx] = level;
      Dfs(depth + 1, cost + StateCost(idx, level));
      used[level] -= problem.states[idx].bytes;
      assignment[idx] = -1;
    }
  }
};

}  // namespace

uint64_t PlacementResult::LatencyPerPacket(const NfpArch& arch,
                                           const std::vector<StateItem>& states) const {
  // Per occupied level: latency x bus beats of the words the packet
  // actually touches there. accesses_per_packet counts touched 32-bit
  // words (arrays and histograms touch one element by index, never the
  // whole structure), so a level's beat count is
  // ceil(4 * touched_words / bus_bytes).
  std::array<uint64_t, kNumMemLevels> touched_words{};
  for (size_t i = 0; i < states.size() && i < assignment.size(); ++i) {
    touched_words[static_cast<int>(assignment[i])] +=
        std::max<uint32_t>(states[i].accesses_per_packet, 1);
  }
  uint64_t total = 0;
  for (int m = 0; m < kNumMemLevels; ++m) {
    if (level_bytes[m] == 0) {
      continue;
    }
    const MemLevelSpec& spec = arch.memories[m];
    const uint64_t bytes = touched_words[m] * 4;
    const uint64_t beats = std::max<uint64_t>((bytes + spec.bus_bytes - 1) / spec.bus_bytes, 1);
    total += spec.latency_cycles * beats;
  }
  return total;
}

std::array<uint32_t, kNumMemLevels> DefaultTableWidths(uint32_t state_bytes_per_group) {
  if (state_bytes_per_group <= 16) {
    return {4, 4, 2, 1};  // The paper's 16-byte-entry example fits width 4.
  }
  if (state_bytes_per_group <= 48) {
    return {2, 2, 1, 1};
  }
  return {1, 1, 1, 1};
}

double PlacementResult::MemoryUtilization(const PlacementProblem& problem) const {
  // On-chip (hierarchical SRAM) utilization: per level, usage is clamped at
  // the level's capacity — EMEM overflow spills to external DRAM, which is
  // not part of the Table 4 "Memory" column.
  const uint64_t groups =
      static_cast<uint64_t>(problem.groups_per_granularity) * problem.granularity_instances;
  uint64_t used = 0;
  uint64_t capacity = 0;
  for (int m = 0; m < kNumMemLevels; ++m) {
    const uint64_t cap = problem.arch.memories[m].capacity_bytes;
    capacity += cap;
    if (level_bytes[m] == 0) {
      continue;
    }
    const uint64_t level_used = (level_bytes[m] + problem.key_bytes) * groups;
    used += std::min(level_used, cap);
  }
  if (capacity == 0) {
    return 0.0;
  }
  return static_cast<double>(used) / static_cast<double>(capacity);
}

Result<PlacementResult> SolvePlacement(const PlacementProblem& problem) {
  PlacementResult result;
  result.assignment.assign(problem.states.size(), MemLevel::kEmem);
  if (problem.states.empty()) {
    return result;
  }

  Solver solver{problem, ComputeBudgets(problem), {}, {}, {}, {}, UINT64_MAX, 0};
  solver.order.resize(problem.states.size());
  std::iota(solver.order.begin(), solver.order.end(), 0);
  std::sort(solver.order.begin(), solver.order.end(), [&](size_t a, size_t b) {
    return problem.states[a].accesses_per_packet > problem.states[b].accesses_per_packet;
  });
  solver.assignment.assign(problem.states.size(), -1);
  solver.Dfs(0, 0);

  if (solver.best_cost == UINT64_MAX) {
    // Greedy fallback (also covers pathological instances): fastest feasible
    // level per state, EMEM as the escape hatch.
    auto budgets = ComputeBudgets(problem);
    std::array<uint64_t, kNumMemLevels> used{};
    result.optimal = false;
    result.objective = 0;
    for (size_t i : solver.order) {
      int chosen = static_cast<int>(MemLevel::kEmem);
      for (int level = 0; level < kNumMemLevels; ++level) {
        const uint64_t bytes = problem.states[i].bytes;
        if (used[level] + bytes <= budgets[level].bus_state_bytes &&
            used[level] + bytes <= budgets[level].cap_state_bytes) {
          chosen = level;
          break;
        }
      }
      used[chosen] += problem.states[i].bytes;
      result.assignment[i] = static_cast<MemLevel>(chosen);
      result.objective +=
          static_cast<uint64_t>(std::max<uint32_t>(problem.states[i].accesses_per_packet, 1)) *
          problem.arch.memories[chosen].latency_cycles;
    }
    for (size_t i = 0; i < problem.states.size(); ++i) {
      result.level_bytes[static_cast<int>(result.assignment[i])] += problem.states[i].bytes;
    }
    return result;
  }

  result.optimal = solver.nodes <= Solver::kNodeBudget;
  result.objective = solver.best_cost;
  for (size_t i = 0; i < problem.states.size(); ++i) {
    result.assignment[i] = static_cast<MemLevel>(solver.best_assignment[i]);
    result.level_bytes[solver.best_assignment[i]] += problem.states[i].bytes;
  }
  return result;
}

}  // namespace superfe
