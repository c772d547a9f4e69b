// Granularity dependency graphs (§9 "More complex granularity dependency
// relationships"): future applications may relate granularities as a DAG
// rather than a chain. The paper's proposed solution — implemented here —
// splits the DAG into a minimum number of dependency chains and allocates
// one MGPV instance per chain.
//
// Minimum chain cover of a DAG equals (by Dilworth/Mirsky via the
// Fulkerson construction) a minimum path cover of its transitive closure,
// solved with bipartite matching.
#ifndef SUPERFE_POLICY_GRANULARITY_GRAPH_H_
#define SUPERFE_POLICY_GRANULARITY_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace superfe {

// A DAG over custom granularities. Nodes are user-defined grouping keys
// (named for diagnostics); an edge u -> v means "v refines u" (every
// v-group is contained in exactly one u-group).
class GranularityGraph {
 public:
  // Adds a node; returns its index.
  int AddNode(std::string name);

  // Adds a refinement edge coarse -> fine.
  Status AddEdge(int coarse, int fine);

  int node_count() const { return static_cast<int>(names_.size()); }
  const std::string& name(int node) const { return names_[node]; }
  const std::vector<std::vector<int>>& adjacency() const { return adjacency_; }

  // True if the graph is acyclic.
  bool IsDag() const;

  // Splits the graph into the minimum number of chains (each chain is a
  // sequence coarse -> ... -> fine along transitive refinements). Every
  // node appears in exactly one chain. Fails if the graph has a cycle.
  Result<std::vector<std::vector<int>>> SplitIntoMinimumChains() const;

 private:
  // Transitive closure reach[u][v] = v refines u (directly or not).
  std::vector<std::vector<bool>> TransitiveClosure() const;

  std::vector<std::string> names_;
  std::vector<std::vector<int>> adjacency_;
};

}  // namespace superfe

#endif  // SUPERFE_POLICY_GRANULARITY_GRAPH_H_
