// Interference structure of a parallel flow graph.
//
// The interleaving predecessors of a node n (paper: PredItlvg(n)) are all
// nodes that may execute immediately before n at runtime due to interleaving
// — i.e. every node of every *sibling* component of every parallel statement
// enclosing n, including nodes of parallel statements nested inside those
// siblings. The relation is symmetric, so the same sets serve as
// interleaving successors for backward analyses.
#pragma once

#include <vector>

#include "ir/graph.hpp"

namespace parcm {

class InterleavingInfo {
 public:
  explicit InterleavingInfo(const Graph& g);

  // Computed on demand: materializing every node's sibling set up front is
  // quadratic in the component size. The solvers work from per-component
  // aggregates instead; this enumeration exists for tests, tools and the
  // enumerator's reduction machinery. `g` must have the structure this info
  // was built from.
  std::vector<NodeId> preds(const Graph& g, NodeId n) const;

 private:
  // Recursive node set per component region, shared by all queries.
  std::vector<avector<NodeId>> comp_nodes_;
};

// Component region of `stmt` that (transitively) contains node n; invalid id
// if n is not inside stmt.
RegionId component_containing(const Graph& g, ParStmtId stmt, NodeId n);

}  // namespace parcm
