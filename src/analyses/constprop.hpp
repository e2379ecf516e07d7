// Interference-aware simple constant propagation.
//
// The paper's related work singles out constant propagation as one of the
// few classical optimizations studied for explicitly parallel programs
// (Knoop, Euro-Par'98; Lee/Midkiff/Padua, LCPC'97). This module implements
// the conservative core: flow-sensitive constant propagation over the
// parallel flow graph where *contested* variables — variables written by
// one component and accessed by a potentially-parallel sibling — are pinned
// to NonConst everywhere. For uncontested variables interleavings cannot
// influence the value, so plain meet-over-graph-paths reasoning is sound.
//
// Variables start as the constant 0 (the interpreter's initial state), so
// the analysis is also a cheap initialization analysis.
//
// The solve runs forward on the dfa engine: a sparse-RPO Worklist over
// DirectedView(kForward) seeded with the start node's successors, so a
// loop-free graph relaxes each node at most once. Only exit states are
// stored, one row of num_vars values per node, allocated once; a node's
// entry state is re-joined from its predecessors' exits on demand, by the
// join the solve uses. The equations are monotone over a finite lattice,
// so every fair iteration order from all-Undef reaches the same greatest
// fixpoint.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/graph.hpp"
#include "support/bitvector.hpp"

namespace parcm {

struct CpValue {
  enum class Kind : std::uint8_t { kUndef, kConst, kNonConst };
  Kind kind = Kind::kUndef;
  std::int64_t value = 0;

  static CpValue undef() { return {}; }
  static CpValue constant(std::int64_t v) {
    return CpValue{Kind::kConst, v};
  }
  static CpValue nonconst() { return CpValue{Kind::kNonConst, 0}; }

  bool is_const() const { return kind == Kind::kConst; }
  bool operator==(const CpValue&) const = default;
};

CpValue meet(const CpValue& a, const CpValue& b);

class ConstPropAnalysis {
 public:
  // Variables excluded because a sibling may interfere.
  std::vector<std::uint8_t> contested;

  // The state at n's entry, one value per variable, written to `state`:
  // the initial state at the start node, elsewhere the join of n's
  // predecessors' exits. A node the solve never reached joins to Undef,
  // and to NonConst for contested variables.
  void entry(NodeId n, std::vector<CpValue>& state) const;
  // Equations the solve evaluated (worklist pops).
  std::size_t relaxations() const { return relaxations_; }

 private:
  friend ConstPropAnalysis analyze_constants(const Graph& g);

  void join(NodeId n, CpValue* in) const;
  const CpValue* exit_row(NodeId n) const { return exit_[n.index()].data(); }

  const Graph* g_ = nullptr;
  std::size_t num_vars_ = 0;
  // Per region, the variables written anywhere in its subtree, in rows of
  // words_ words: the parallel-aware ParEnd join asks which component
  // writes a variable.
  std::size_t words_ = 0;
  std::vector<BitVector::Word> region_write_;
  // One exit row per node, each its own allocation: a single
  // num_nodes x num_vars block exceeds glibc's mmap threshold on large
  // programs, and freeing it raises that threshold for the rest of the
  // process, which grew peak RSS over repeated batch rounds.
  std::vector<std::vector<CpValue>> exit_;
  std::size_t relaxations_ = 0;
};

// The analysis refers to g, which must outlive it and keep its edges.
ConstPropAnalysis analyze_constants(const Graph& g);

struct ConstPropResult {
  Graph graph;
  std::size_t operands_folded = 0;  // variable operands replaced by literals
  std::size_t rhs_folded = 0;       // whole right-hand sides evaluated
};

// Replaces provably-constant variable operands by literals and folds
// constant binary right-hand sides (x := 2 + 3 becomes x := 5). Test
// conditions are folded at the operand level only; branch structure is
// never changed.
ConstPropResult propagate_constants(const Graph& g);

}  // namespace parcm
