// Dead assignment elimination for explicitly parallel programs.
//
// The paper's conclusions list the classical bitvector-based optimizations
// its framework carries to the parallel setting — code motion, strength
// reduction, partial dead-code elimination, assignment motion. This module
// implements the dead-code side: an assignment x := e is eliminated when x
// is dead after it, i.e. no continuation of any interleaving reads x before
// it is overwritten (and x is not observable at the end).
//
// Liveness is a *may* (union) problem, so unlike the must-analyses of the
// code motion pipeline it needs no hierarchical synchronization: the union
// over interleavings equals the union over graph paths, plus interference —
// a read of x anywhere in a sibling component may execute after any point
// of the component, which conservatively makes x live throughout. Each
// region's direct reads are folded once up the region tree and pushed back
// down as sibling unions (dfa/region_meta, the may-dual of NonDest), so a
// node's interference is the row of its region.
//
// The solve is one word-parallel backward pass on the dfa engine: use, def,
// live-in and live-out are flat num_nodes x W word matrices (W words per
// variable set), and a sparse-RPO Worklist over DirectedView(kBackward)
// starts from the empty sets with only the violated equations seeded (nodes
// that read, sit beside a reading sibling, or are e*). On loop-free graphs
// every node is therefore relaxed at most once, and nothing is allocated
// per relaxation. The least fixpoint of these equations is unique, so the
// evaluation order changes no result bit.
//
// Elimination cascades (removing a dead assignment may kill the last use
// feeding another one — "faint" variables), so the transformation iterates
// to a fixpoint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.hpp"
#include "support/bitvector.hpp"

namespace parcm {

struct DceOptions {
  // Variables observable after e*; they stay live at the end. Empty means
  // every variable of the program is observable (the conservative default —
  // only assignments that are definitely overwritten die).
  std::vector<std::string> observed;
};

struct DceResult {
  Graph graph;
  // Assignment nodes turned into skips, per elimination round.
  std::vector<NodeId> eliminated;
  std::size_t rounds = 0;
};

DceResult eliminate_dead_assignments(const Graph& g,
                                     const DceOptions& options = {});

// The liveness analysis behind it: one bit per variable, rows of flat word
// matrices indexed by node.
class ParallelLiveness {
 public:
  // v may be read, on some interleaving continuing from the entry / exit of
  // n, before it is overwritten (graph paths + interference).
  bool live_in(NodeId n, VarId v) const { return test(in_, n, v); }
  bool live_out(NodeId n, VarId v) const { return test(out_, n, v); }
  // Equations the solve evaluated (worklist pops).
  std::size_t relaxations() const { return relaxations_; }

 private:
  friend ParallelLiveness compute_parallel_liveness(const Graph& g,
                                                    const BitVector& observed);

  bool test(const std::vector<BitVector::Word>& m, NodeId n, VarId v) const {
    return BitVector::test_bit(m.data() + n.index() * words_, v.index());
  }

  std::size_t words_ = 0;
  std::vector<BitVector::Word> in_;
  std::vector<BitVector::Word> out_;
  std::size_t relaxations_ = 0;
};

ParallelLiveness compute_parallel_liveness(const Graph& g,
                                           const BitVector& observed);

// Liveness of one variable on demand, for a pass that asks about x at a few
// nodes of a graph it keeps changing (sinking asks at its placements, once
// per candidate). A forward search from n answers "live" at a read of x, at
// a node whose region has a sibling component reading x, and at e* when x
// is observed; it stops a branch at a redefinition of x. That is the least
// fixpoint of compute_parallel_liveness's equations restricted to x's bit,
// so every answer equals the full solve's live_in(n, x).
//
// Sibling reads come from an index of the component regions whose own
// nodes read each variable, with the number of reads, built once by bind()
// and kept current by the caller's add_reads()/remove_reads(). A reset()
// marks the components whose subtree reads x, walking up from x's reading
// regions only, so it costs the reads of x rather than a scan of the graph.
// All marks are epoch-stamped and reused across resets and searches.
class LivenessQuery {
 public:
  // Prepares queries on g and indexes its reads.
  void bind(const Graph& g);
  // Keep the index current while editing the bound graph: remove_reads(n)
  // before node n stops reading its operands (is rewritten or becomes a
  // skip), add_reads(n) once a new node n is in place.
  void add_reads(NodeId n) { count_reads(n, 1); }
  void remove_reads(NodeId n) { count_reads(n, -1); }
  // Prepares queries about x on the bound graph, where x is live at e* iff
  // `observed`.
  void reset(VarId x, bool observed);
  // live_in(n, x) of compute_parallel_liveness(g, mask) for every mask
  // whose x bit is `observed`.
  bool live_in(NodeId n);

 private:
  bool reads_x(const Node& node) const;
  void count_reads(NodeId n, int delta);
  // Does a sibling component of r, or of a component enclosing r, read x?
  bool sibling_reads(RegionId r);

  const Graph* g_ = nullptr;
  VarId x_;
  bool observed_ = false;
  // Per variable: (component region, reads by the region's own nodes).
  std::vector<avector<std::pair<RegionId, std::uint32_t>>> readers_;
  // For x, per reset: the components whose subtree reads x, per statement
  // the number of them, and a memo of sibling_reads by region.
  std::uint32_t reset_epoch_ = 0;
  std::vector<std::uint32_t> subtree_reads_;  // by region
  std::vector<std::uint32_t> stmt_epoch_;
  std::vector<std::uint32_t> stmt_reading_;   // by statement
  std::vector<std::uint32_t> memo_epoch_;     // by region
  std::vector<char> memo_;
  // visited_[n] == epoch_ iff the current search has visited n.
  std::vector<std::uint32_t> visited_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> stack_;
};

}  // namespace parcm
