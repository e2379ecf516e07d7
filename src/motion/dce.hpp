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

}  // namespace parcm
