// MUSTUSE on an anchor's forward cone: the solve behind PCM's anchor
// sinking (motion/code_motion.cpp, DESIGN.md §4b item 1 and §4c).
//
// MUSTUSE(n) for a term t against a blocking set B (the anchors placed so
// far for t): every maximal path from n reaches a replacement of t before
// a kill of t or a node of B. It is the least fixpoint of
//
//   MUSTUSE(n) = Replace(n) ∨ (dependent(n) ∧ ∀ successors m: MUSTUSE(m)),
//   dependent(n) = Transp(n) ∧ n ∉ B ∧ ¬Replace(n) ∧ n has a successor,
//
// so nodes on loops without a replacement stay false (the anchor then
// sinks to the consumers, which is always sound).
//
// A node's value depends only on its successors', and only when it is
// dependent. So on any node set closed under the successors of its
// dependent nodes, the least fixpoint of the equations restricted to the
// set equals the whole-graph one: Kleene iteration on the set reads
// nothing outside it. The cone of an anchor a is the least such set that
// holds a's successors, and a's ParEnd when a is a ParBegin, and that is
// also closed under ParBegin -> ParEnd. Anchor sinking reads MUSTUSE only
// inside it: at a's successors, at the ParEnd it jumps to past a
// transparent statement, and at the nodes its descent reaches, which it
// expands only through dependent nodes and ParBegin -> ParEnd jumps.
// `mustuse()` checks that every read lies in the cone.
//
// The solve touches the cone alone, usually a handful of nodes; a
// whole-graph solve per anchor would make placement O(anchors × nodes).
// The marks are epoch-stamped and reused across solves.
#pragma once

#include <cstdint>
#include <vector>

#include "analyses/predicates.hpp"
#include "ir/graph.hpp"
#include "support/bitvector.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

// One term's MUSTUSE problem on the graph that placement grows. Nodes with
// ids at or above `analyzed` were created by placement (temp
// initializations and trivial copies): transparent, never replacements,
// never blocking.
struct MustUseProblem {
  const Graph* graph = nullptr;
  const LocalPredicates* preds = nullptr;
  const std::vector<BitVector>* replace = nullptr;  // MotionPredicates rows
  std::size_t analyzed = 0;
  TermId term;
  const std::vector<char>* blocking = nullptr;  // by node id

  bool is_replace(NodeId n) const {
    return n.index() < analyzed && (*replace)[n.index()].test(term.index());
  }
  bool is_transp(NodeId n) const {
    return n.index() >= analyzed || preds->transp(n, term);
  }
  bool is_blocking(NodeId n) const {
    return n.index() < analyzed && (*blocking)[n.index()];
  }
  bool is_dependent(NodeId n) const {
    return is_transp(n) && !is_blocking(n) && !is_replace(n) &&
           !graph->node(n).out_edges.empty();
  }
};

class MustUseCone {
 public:
  // Collects the cone of `anchor` and solves MUSTUSE on it.
  void solve(const MustUseProblem& problem, NodeId anchor);

  bool contains(NodeId n) const {
    return n.index() < in_cone_.size() && in_cone_[n.index()] == epoch_;
  }
  // MUSTUSE(n) of the last solve; n must lie in its cone.
  bool mustuse(NodeId n) const {
    PARCM_CHECK(contains(n), "MUSTUSE read outside the anchor's cone");
    return value_[n.index()] == epoch_;
  }
  // The cone's nodes in discovery order.
  const std::vector<NodeId>& nodes() const { return nodes_; }

 private:
  // mark[n] == epoch_ iff n is in the cone / MUSTUSE(n) holds / n is on
  // the worklist, for the current solve.
  std::vector<std::uint32_t> in_cone_;
  std::vector<std::uint32_t> value_;
  std::vector<std::uint32_t> queued_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> nodes_;
  std::vector<NodeId> worklist_;
};

}  // namespace parcm
