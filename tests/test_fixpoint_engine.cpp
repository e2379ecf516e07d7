// Fixpoint-engine suite (`ctest -L dfa`): the sparse-RPO worklist, the
// directed-view RPO/member indexing, the once-per-solve region metadata,
// sparse-vs-FIFO and packed-vs-scalar differentials on random programs, the
// relaxation-count regression the sparse seeding is expected to win, and
// the cross-pass analysis cache's bundle lifetime.
#include <gtest/gtest.h>

#include <algorithm>

#include "analyses/cache.hpp"
#include "analyses/downsafety.hpp"
#include "analyses/upsafety.hpp"
#include "dfa/direction.hpp"
#include "dfa/hier_solver.hpp"
#include "dfa/packed.hpp"
#include "dfa/region_meta.hpp"
#include "dfa/worklist.hpp"
#include "lang/lower.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

// --- worklist ----------------------------------------------------------------

TEST(Worklist, SparsePopsInPositionOrderAndDedups) {
  Worklist wl;
  wl.reset(8, WorklistPolicy::kSparseRpo);
  EXPECT_TRUE(wl.empty());
  wl.push(5);
  wl.push(2);
  wl.push(5);  // duplicate
  wl.push(7);
  EXPECT_EQ(wl.size(), 3u);
  EXPECT_EQ(wl.pop(), 2u);
  EXPECT_EQ(wl.pop(), 5u);
  EXPECT_EQ(wl.pop(), 7u);
  EXPECT_TRUE(wl.empty());
}

TEST(Worklist, SparseCursorWrapsForBackEdges) {
  Worklist wl;
  wl.reset(8, WorklistPolicy::kSparseRpo);
  wl.push(5);
  EXPECT_EQ(wl.pop(), 5u);
  // A change at 5 pushed a forward successor (7) and a back-edge target (2):
  // forward progress first, then wrap around.
  wl.push(7);
  wl.push(2);
  EXPECT_EQ(wl.pop(), 7u);
  EXPECT_EQ(wl.pop(), 2u);
  EXPECT_TRUE(wl.empty());
}

TEST(Worklist, FifoPreservesInsertionOrder) {
  Worklist wl;
  wl.reset(8, WorklistPolicy::kDenseFifo);
  wl.push(5);
  wl.push(2);
  wl.push(5);  // duplicate
  wl.push(7);
  EXPECT_EQ(wl.pop(), 5u);
  wl.push(5);  // re-push after pop is allowed again
  EXPECT_EQ(wl.pop(), 2u);
  EXPECT_EQ(wl.pop(), 7u);
  EXPECT_EQ(wl.pop(), 5u);
  EXPECT_TRUE(wl.empty());
}

TEST(Worklist, ResetReusesBuffers) {
  Worklist wl;
  wl.reset(4, WorklistPolicy::kSparseRpo);
  wl.push(3);
  wl.reset(6, WorklistPolicy::kDenseFifo);
  EXPECT_TRUE(wl.empty());
  wl.push(5);
  EXPECT_EQ(wl.pop(), 5u);
}

// --- directed view: RPO and member indexing -----------------------------------

TEST(DirectedView, RpoIsAPermutationWithEntryFirst) {
  Rng rng(11);
  RandomProgramOptions opt;
  opt.target_stmts = 30;
  opt.max_par_depth = 2;
  opt.while_permille = 120;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = random_program(rng, opt);
    for (Direction dir : {Direction::kForward, Direction::kBackward}) {
      DirectedView view(g, dir);
      EXPECT_EQ(view.num_nodes(), g.num_nodes());
      EXPECT_EQ(view.rpo_index(view.entry()), 0u);
      std::vector<char> seen(g.num_nodes(), 0);
      for (NodeId n : g.all_nodes()) {
        std::size_t pos = view.rpo_index(n);
        ASSERT_LT(pos, g.num_nodes());
        EXPECT_EQ(view.rpo_node(pos), n);
        EXPECT_FALSE(seen[pos]) << "duplicate rpo position";
        seen[pos] = 1;
      }
    }
  }
}

TEST(DirectedView, RpoIsTopologicalOnAcyclicGraphs) {
  Graph g = families::par_wide(4, 32);
  for (Direction dir : {Direction::kForward, Direction::kBackward}) {
    DirectedView view(g, dir);
    for (NodeId n : g.all_nodes()) {
      for (NodeId m : view.dir_succs(n)) {
        EXPECT_LT(view.rpo_index(n), view.rpo_index(m))
            << "edge against RPO in an acyclic graph";
      }
    }
  }
}

TEST(DirectedView, RegionMembersSortedByRpoWithDenseIndex) {
  Graph g = families::par_nested(3, 16);
  DirectedView view(g, Direction::kForward);
  for (std::size_t ri = 0; ri < g.num_regions(); ++ri) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    std::span<const NodeId> members = view.region_members_rpo(r);
    EXPECT_EQ(members.size(), g.region(r).nodes.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(view.member_index(members[i]), i);
      if (i > 0) {
        EXPECT_LT(view.rpo_index(members[i - 1]), view.rpo_index(members[i]));
      }
    }
  }
}

TEST(DirectedView, AdjacencyMatchesGraph) {
  Rng rng(23);
  RandomProgramOptions opt;
  opt.max_par_depth = 2;
  Graph g = random_program(rng, opt);
  DirectedView fwd(g, Direction::kForward);
  for (NodeId n : g.all_nodes()) {
    avector<NodeId> want = g.succs(n);
    std::span<const NodeId> got = fwd.dir_succs(n);
    EXPECT_TRUE(std::is_permutation(got.begin(), got.end(), want.begin(),
                                    want.end()));
    want = g.preds(n);
    got = fwd.dir_preds(n);
    EXPECT_TRUE(std::is_permutation(got.begin(), got.end(), want.begin(),
                                    want.end()));
  }
}

// --- region metadata ----------------------------------------------------------

TEST(RegionMeta, DestroyMasksMatchRecursiveBruteForce) {
  Rng rng(31);
  RandomProgramOptions opt;
  opt.max_par_depth = 3;
  opt.target_stmts = 40;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = random_program(rng, opt);
    TermTable terms(g);
    LocalPredicates preds(g, terms);
    PackedProblem p = make_upsafety_problem(g, preds, SafetyVariant::kRefined);
    std::vector<BitVector> masks =
        region_destroy_masks(g, p.destroy, p.num_terms);
    ASSERT_EQ(masks.size(), g.num_regions());
    for (std::size_t ri = 0; ri < g.num_regions(); ++ri) {
      RegionId r(static_cast<RegionId::underlying>(ri));
      BitVector want(p.num_terms);
      for (NodeId n : g.nodes_in_region_recursive(r)) {
        want |= p.destroy[n.index()];
      }
      EXPECT_EQ(masks[ri], want) << "region " << ri << " trial " << trial;
    }
  }
}

TEST(RegionMeta, NondestDropsExactlySiblingDestroys) {
  Rng rng(37);
  RandomProgramOptions opt;
  opt.max_par_depth = 3;
  opt.target_stmts = 40;
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = random_program(rng, opt);
    TermTable terms(g);
    LocalPredicates preds(g, terms);
    PackedProblem p = make_upsafety_problem(g, preds, SafetyVariant::kRefined);
    std::vector<BitVector> destroy =
        region_destroy_masks(g, p.destroy, p.num_terms);
    std::vector<BitVector> nondest =
        region_nondest_masks(g, destroy, p.num_terms);
    for (NodeId n : g.all_nodes()) {
      // Definition: drop every term destroyed in a sibling component of any
      // enclosing parallel statement.
      BitVector want(p.num_terms, true);
      for (const Graph::Enclosing& enc : g.enclosing_stmts(n)) {
        for (RegionId comp : g.par_stmt(enc.stmt).components) {
          if (comp != enc.component) want.and_not(destroy[comp.index()]);
        }
      }
      EXPECT_EQ(nondest[g.node(n).region.index()], want)
          << "node " << n.value() << " trial " << trial;
    }
  }
}

// --- differential: sparse vs FIFO, packed vs scalar ---------------------------

PackedProblem make_problem(const Graph& g, const LocalPredicates& preds,
                           bool forward) {
  return forward ? make_upsafety_problem(g, preds, SafetyVariant::kRefined)
                 : make_downsafety_problem(g, preds, SafetyVariant::kRefined);
}

TEST(FixpointDifferential, SparseAndFifoAreBitIdentical) {
  Rng rng(101);
  RandomProgramOptions opt;
  opt.target_stmts = 35;
  opt.max_par_depth = 2;
  opt.while_permille = 120;
  opt.barrier_permille = 80;
  for (int trial = 0; trial < 25; ++trial) {
    Graph g = random_program(rng, opt);
    TermTable terms(g);
    LocalPredicates preds(g, terms);
    if (terms.size() == 0) continue;
    for (bool forward : {true, false}) {
      PackedProblem p = make_problem(g, preds, forward);
      p.worklist = WorklistPolicy::kSparseRpo;
      PackedResult sparse = solve_packed(g, p);
      p.worklist = WorklistPolicy::kDenseFifo;
      PackedResult fifo = solve_packed(g, p);
      ASSERT_EQ(sparse.entry, fifo.entry) << "trial " << trial;
      ASSERT_EQ(sparse.out, fifo.out) << "trial " << trial;
      ASSERT_EQ(sparse.nondest, fifo.nondest) << "trial " << trial;
      ASSERT_EQ(sparse.stmt_summary, fifo.stmt_summary) << "trial " << trial;
    }
  }
}

TEST(FixpointDifferential, SparsePackedMatchesScalarSlices) {
  Rng rng(103);
  RandomProgramOptions opt;
  opt.target_stmts = 30;
  opt.max_par_depth = 2;
  opt.while_permille = 100;
  opt.barrier_permille = 60;
  for (int trial = 0; trial < 15; ++trial) {
    Graph g = random_program(rng, opt);
    TermTable terms(g);
    LocalPredicates preds(g, terms);
    if (terms.size() == 0) continue;
    for (bool forward : {true, false}) {
      PackedProblem p = make_problem(g, preds, forward);
      PackedResult packed = solve_packed(g, p);
      for (std::size_t t = 0; t < p.num_terms; ++t) {
        BitProblem bp = extract_term_problem(p, t);
        BitResult bit = solve_bit(g, bp);
        for (NodeId n : g.all_nodes()) {
          ASSERT_EQ(bit.entry[n.index()], packed.entry[n.index()].test(t))
              << "entry node " << n.value() << " term " << t << " trial "
              << trial;
          ASSERT_EQ(bit.out[n.index()], packed.out[n.index()].test(t))
              << "out node " << n.value() << " term " << t << " trial "
              << trial;
          ASSERT_EQ(bit.nondest[n.index()], packed.nondest[n.index()].test(t))
              << "nondest node " << n.value() << " term " << t << " trial "
              << trial;
        }
      }
    }
  }
}

// --- relaxation-count regression ----------------------------------------------

struct RelaxationPair {
  std::size_t sparse;
  std::size_t fifo;
};

RelaxationPair relaxations_both(const Graph& g) {
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  PackedProblem p = make_upsafety_problem(g, preds, SafetyVariant::kRefined);
  p.worklist = WorklistPolicy::kSparseRpo;
  PackedResult sparse = solve_packed(g, p);
  p.worklist = WorklistPolicy::kDenseFifo;
  PackedResult fifo = solve_packed(g, p);
  EXPECT_EQ(sparse.entry, fifo.entry);
  EXPECT_EQ(sparse.out, fifo.out);
  return {sparse.relaxations, fifo.relaxations};
}

TEST(RelaxationRegression, ParWideSparseAtLeastHalvesFifo) {
  Graph g = families::par_wide(8, 128);
  RelaxationPair r = relaxations_both(g);
  EXPECT_GT(r.sparse, 0u);
  // FIFO seeds every node in both the summary and the value pass, so it is
  // lower-bounded by the node count; the sparse seeding must at least halve
  // it (in practice it does far better — only the boundary wave and the
  // initializer prefix relax).
  EXPECT_GE(r.fifo + 1, g.num_nodes());
  EXPECT_LE(r.sparse * 2, r.fifo);
  // Absolute guardrail so a future seeding bug cannot silently regress to
  // dense behaviour.
  EXPECT_LE(r.sparse, g.num_nodes());
}

TEST(RelaxationRegression, ParNestedSparseAtLeastHalvesFifo) {
  Graph g = families::par_nested(4, 32);
  RelaxationPair r = relaxations_both(g);
  EXPECT_GT(r.sparse, 0u);
  EXPECT_GE(r.fifo + 1, g.num_nodes());
  EXPECT_LE(r.sparse * 2, r.fifo);
  EXPECT_LE(r.sparse, g.num_nodes());
}

// --- analysis cache ----------------------------------------------------------

TEST(AnalysisCache, MutationInvalidatesAndBundleOutlivesIt) {
  Graph g = lang::compile_or_throw("x := a + b; y := c + d;");
  AnalysisCache cache;
  auto before = cache.acquire(g);
  EXPECT_EQ(before->terms.size(), 2u);
  // Appending a node with a fresh term changes the structural hash.
  VarId e = g.intern_var("e");
  VarId f = g.intern_var("f");
  VarId z = g.intern_var("z");
  g.new_assign(g.root_region(), z,
               Rhs(Term{BinOp::kAdd, Operand::var(e), Operand::var(f)}));
  EXPECT_NE(structural_hash(g), 0u);
  auto after = cache.acquire(g);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->terms.size(), 3u);
  // The old shared_ptr stays valid for passes still holding it.
  EXPECT_EQ(before->terms.size(), 2u);
}

}  // namespace
}  // namespace parcm
