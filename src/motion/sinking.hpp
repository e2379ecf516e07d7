// Partial dead-code elimination by assignment sinking.
//
// The dual of code motion, and the subject of the author's companion work
// the paper cites ([10] Knoop, TCS'98 — partially dead code in explicitly
// parallel programs; [16] assignment motion): an assignment `x := rhs` that
// is dead on *some* paths is sunk to the frontier where its value is about
// to be consumed, and the copies on paths where x is dead are dropped —
// the assignment then executes only when needed.
//
// Sinking region for a candidate assignment A (greatest fixpoint):
//   D(n) = every path from A to n is *clean* — no use or redefinition of x,
//          no modification of rhs operands, and no parallel statement
//          boundary (ParBegin/ParEnd block: sinking into components would
//          duplicate the assignment across sibling executions, sinking out
//          would reorder it against the join).
// The greatest fixpoint lies inside the nodes reachable from A through
// clean nodes, so D is solved by a worklist over that region alone (every
// node starts in D; violated nodes retract and re-check their successors)
// rather than by sweeps over the whole graph; the fixpoint is the same.
// Copies are placed (a) before every node n with D(n) that is not clean
// (the first consumer / blocker on each path) and (b) on every edge leaving
// the D-region; a copy is dropped when x is dead at its placement, which
// a LivenessQuery for x decides (dce.hpp): a forward search from the
// placement that stops at redefinitions of x.
// Each path through A crosses exactly one placement, so per-path cost
// never increases, and strictly decreases on the dead paths.
//
// Interference: only assignments whose left-hand side and operands are all
// *uncontested* (no potentially-parallel access) are candidates — for those
// the reordering is thread-local and invisible to siblings. A variable is
// contested when a node writes it while a sibling component may access it;
// the siblings' accesses come from per-region masks folded once up the
// region tree (dfa/region_meta), as for liveness interference.
#pragma once

#include <vector>

#include "ir/graph.hpp"

namespace parcm {

struct SinkingResult {
  Graph graph;
  // Original assignment nodes that were moved (turned into skips).
  std::vector<NodeId> sunk;
  // Placements materialized / dropped-as-dead across all candidates.
  std::size_t copies_placed = 0;
  std::size_t copies_dropped = 0;
};

// Applies assignment sinking to every profitable candidate (at least one
// dead copy dropped). Candidates are processed one at a time on the
// evolving graph.
SinkingResult sink_partially_dead_assignments(const Graph& g);

}  // namespace parcm
