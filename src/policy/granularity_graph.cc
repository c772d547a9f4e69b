#include "policy/granularity_graph.h"

#include <algorithm>
#include <functional>

namespace superfe {

int GranularityGraph::AddNode(std::string name) {
  names_.push_back(std::move(name));
  adjacency_.emplace_back();
  return static_cast<int>(names_.size()) - 1;
}

Status GranularityGraph::AddEdge(int coarse, int fine) {
  if (coarse < 0 || coarse >= node_count() || fine < 0 || fine >= node_count()) {
    return Status::OutOfRange("granularity edge references an unknown node");
  }
  if (coarse == fine) {
    return Status::InvalidArgument("a granularity cannot refine itself");
  }
  adjacency_[coarse].push_back(fine);
  return Status::Ok();
}

bool GranularityGraph::IsDag() const {
  // Colors: 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<int> color(node_count(), 0);
  std::function<bool(int)> visit = [&](int u) {
    color[u] = 1;
    for (int v : adjacency_[u]) {
      if (color[v] == 1 || (color[v] == 0 && !visit(v))) {
        return false;
      }
    }
    color[u] = 2;
    return true;
  };
  for (int u = 0; u < node_count(); ++u) {
    if (color[u] == 0 && !visit(u)) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<bool>> GranularityGraph::TransitiveClosure() const {
  const int n = node_count();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (int u = 0; u < n; ++u) {
    for (int v : adjacency_[u]) {
      reach[u][v] = true;
    }
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (!reach[i][k]) {
        continue;
      }
      for (int j = 0; j < n; ++j) {
        if (reach[k][j]) {
          reach[i][j] = true;
        }
      }
    }
  }
  return reach;
}

Result<std::vector<std::vector<int>>> GranularityGraph::SplitIntoMinimumChains() const {
  if (!IsDag()) {
    return Status::InvalidArgument("granularity dependencies contain a cycle");
  }
  const int n = node_count();
  const auto reach = TransitiveClosure();

  // Minimum path cover on the transitive closure via Kuhn's bipartite
  // matching: left copy u matched to right copy v means v directly follows
  // u in some chain.
  std::vector<int> match_right(n, -1);  // Right node -> left node.
  std::vector<int> match_left(n, -1);   // Left node -> right node.
  std::function<bool(int, std::vector<bool>&)> augment = [&](int u, std::vector<bool>& used) {
    for (int v = 0; v < n; ++v) {
      if (!reach[u][v] || used[v]) {
        continue;
      }
      used[v] = true;
      if (match_right[v] < 0 || augment(match_right[v], used)) {
        match_right[v] = u;
        match_left[u] = v;
        return true;
      }
    }
    return false;
  };
  for (int u = 0; u < n; ++u) {
    std::vector<bool> used(n, false);
    augment(u, used);
  }

  // Chains start at nodes that are nobody's successor.
  std::vector<bool> is_successor(n, false);
  for (int v = 0; v < n; ++v) {
    if (match_right[v] >= 0) {
      is_successor[v] = true;
    }
  }
  std::vector<std::vector<int>> chains;
  for (int u = 0; u < n; ++u) {
    if (is_successor[u]) {
      continue;
    }
    std::vector<int> chain;
    for (int cur = u; cur >= 0; cur = match_left[cur]) {
      chain.push_back(cur);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

}  // namespace superfe
