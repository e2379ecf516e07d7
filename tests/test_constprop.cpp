#include "analyses/constprop.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "dfa/direction.hpp"
#include "dfa/region_meta.hpp"
#include "ir/printer.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "motion/pcm.hpp"
#include "semantics/equivalence.hpp"
#include "semantics/state.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

// Reference formulation of the analysis: nested per-node entry and exit
// vectors, a FIFO worklist in node order seeded with the start node's
// successors, a fresh pair of vectors per relaxation. It computes the same
// greatest fixpoint as analyze_constants by another route. `reached` marks
// the start node and every node the worklist popped; the others keep
// all-Undef entries.
struct ReferenceConstProp {
  std::vector<std::vector<CpValue>> entry;
  std::vector<char> reached;
};

CpValue reference_eval(const Rhs& rhs, const std::vector<CpValue>& state) {
  auto operand = [&](const Operand& op) {
    return op.is_const() ? CpValue::constant(op.const_value())
                         : state[op.var_id().index()];
  };
  if (rhs.is_trivial()) return operand(rhs.trivial());
  CpValue a = operand(rhs.term().lhs);
  CpValue b = operand(rhs.term().rhs);
  if (a.kind == CpValue::Kind::kUndef || b.kind == CpValue::Kind::kUndef) {
    return CpValue::undef();
  }
  if (!a.is_const() || !b.is_const()) return CpValue::nonconst();
  VarState dummy(0);
  return CpValue::constant(eval_rhs(
      dummy, Rhs(Term{rhs.term().op, Operand::constant(a.value),
                      Operand::constant(b.value)})));
}

ReferenceConstProp reference_constants(const Graph& g) {
  std::size_t k = g.num_vars();
  BitVector contested_mask = contested_vars(g);
  std::vector<std::uint8_t> contested(k, 0);
  for (std::size_t v = 0; v < k; ++v) contested[v] = contested_mask.test(v);
  const std::size_t words = contested_mask.word_count();
  std::vector<BitVector::Word> region_write =
      region_subtree_rows(g, region_write_rows(g, words), words);
  auto clamp = [&](std::vector<CpValue>& state) {
    for (std::size_t v = 0; v < k; ++v) {
      if (contested[v]) state[v] = CpValue::nonconst();
    }
  };

  ReferenceConstProp res;
  res.entry.assign(g.num_nodes(), std::vector<CpValue>(k));
  res.reached.assign(g.num_nodes(), 0);
  std::vector<std::vector<CpValue>> exit(g.num_nodes(),
                                         std::vector<CpValue>(k));
  std::vector<CpValue> init(k, CpValue::constant(0));
  clamp(init);
  res.entry[g.start().index()] = init;
  res.reached[g.start().index()] = 1;
  exit[g.start().index()] = std::move(init);

  std::deque<NodeId> worklist;
  std::vector<char> queued(g.num_nodes(), 0);
  for (NodeId m : g.succs(g.start())) {
    worklist.push_back(m);
    queued[m.index()] = 1;
  }
  while (!worklist.empty()) {
    NodeId n = worklist.front();
    worklist.pop_front();
    queued[n.index()] = 0;
    res.reached[n.index()] = 1;

    std::vector<CpValue> in(k);
    if (g.node(n).kind == NodeKind::kParEnd) {
      for (std::size_t v = 0; v < k; ++v) {
        RegionId writer;
        bool multiple = false;
        const ParStmt& stmt = g.par_stmt(g.node(n).par_stmt);
        for (RegionId comp : stmt.components) {
          if (BitVector::test_bit(
                  region_write.data() + comp.index() * words, v)) {
            multiple = writer.valid();
            writer = comp;
          }
        }
        for (NodeId m : g.preds(n)) {
          if (!multiple && writer.valid() && g.node(m).region != writer) {
            continue;
          }
          in[v] = meet(in[v], exit[m.index()][v]);
        }
      }
    } else {
      for (NodeId m : g.preds(n)) {
        for (std::size_t v = 0; v < k; ++v) {
          in[v] = meet(in[v], exit[m.index()][v]);
        }
      }
    }
    clamp(in);
    std::vector<CpValue> out = in;
    const Node& node = g.node(n);
    if (node.kind == NodeKind::kAssign && !contested[node.lhs.index()]) {
      out[node.lhs.index()] = reference_eval(node.rhs, in);
    }
    clamp(out);
    if (in == res.entry[n.index()] && out == exit[n.index()]) continue;
    res.entry[n.index()] = std::move(in);
    exit[n.index()] = std::move(out);
    for (NodeId m : g.succs(n)) {
      if (m != g.start() && !queued[m.index()]) {
        queued[m.index()] = 1;
        worklist.push_back(m);
      }
    }
  }
  return res;
}

bool has_back_edge(const Graph& g) {
  DirectedView view(g, Direction::kForward);
  for (NodeId n : g.all_nodes()) {
    for (NodeId m : view.dir_succs(n)) {
      if (view.rpo_index(m) <= view.rpo_index(n)) return true;
    }
  }
  return false;
}

TEST(CpValue, MeetLattice) {
  CpValue u = CpValue::undef();
  CpValue c5 = CpValue::constant(5);
  CpValue c7 = CpValue::constant(7);
  CpValue nc = CpValue::nonconst();
  EXPECT_EQ(meet(u, c5), c5);
  EXPECT_EQ(meet(c5, u), c5);
  EXPECT_EQ(meet(c5, c5), c5);
  EXPECT_EQ(meet(c5, c7), nc);
  EXPECT_EQ(meet(nc, c5), nc);
  EXPECT_EQ(meet(u, u), u);
}

TEST(ConstProp, StraightLineFolding) {
  Graph g = lang::compile_or_throw("x := 2; y := x + 3; z := y * y;");
  ConstPropResult r = propagate_constants(g);
  validate_or_throw(r.graph);
  EXPECT_EQ(statement_to_string(r.graph, node_of_statement(r.graph, "y := 5")),
            "y := 5");
  EXPECT_EQ(r.rhs_folded, 2u);  // y := 5, z := 25
}

TEST(ConstProp, UninitializedVariablesAreZero) {
  Graph g = lang::compile_or_throw("y := x + 1;");
  ConstPropResult r = propagate_constants(g);
  // x reads as the initial 0 -> y := 1.
  bool found = false;
  for (NodeId n : r.graph.all_nodes()) {
    found |= statement_to_string(r.graph, n) == "y := 1";
  }
  EXPECT_TRUE(found);
}

TEST(ConstProp, BranchJoinLosesDisagreeingConstants) {
  Graph g = lang::compile_or_throw(
      "if (*) { x := 1; } else { x := 2; } y := x + 1;");
  ConstPropResult r = propagate_constants(g);
  // x is 1 or 2 at the join: not folded.
  bool y_unfolded = false;
  for (NodeId n : r.graph.all_nodes()) {
    y_unfolded |= statement_to_string(r.graph, n) == "y := x + 1";
  }
  EXPECT_TRUE(y_unfolded);
}

TEST(ConstProp, BranchJoinKeepsAgreeingConstants) {
  Graph g = lang::compile_or_throw(
      "if (*) { x := 7; } else { x := 7; } y := x + 1;");
  ConstPropResult r = propagate_constants(g);
  bool folded = false;
  for (NodeId n : r.graph.all_nodes()) {
    folded |= statement_to_string(r.graph, n) == "y := 8";
  }
  EXPECT_TRUE(folded);
}

TEST(ConstProp, LoopBodyInvalidatesRedefined) {
  Graph g = lang::compile_or_throw(
      "x := 1; while (*) { x := x + 1; } y := x;");
  ConstPropResult r = propagate_constants(g);
  // x is loop-varying; y must not fold.
  bool y_unfolded = false;
  for (NodeId n : r.graph.all_nodes()) {
    y_unfolded |= statement_to_string(r.graph, n) == "y := x";
  }
  EXPECT_TRUE(y_unfolded);
}

TEST(ConstProp, ContestedVariableNeverFolds) {
  // x is written by one component and read by the sibling: interference
  // makes every x-read non-constant, even the sequential-looking one after
  // the join.
  Graph g = lang::compile_or_throw(R"(
    x := 1;
    par { x := 2; } and { y := x; }
    z := x;
  )");
  ConstPropAnalysis a = analyze_constants(g);
  EXPECT_TRUE(a.contested[g.find_var("x")->index()]);
  ConstPropResult r = propagate_constants(g);
  bool y_unfolded = false, z_unfolded = false;
  for (NodeId n : r.graph.all_nodes()) {
    y_unfolded |= statement_to_string(r.graph, n) == "y := x";
    z_unfolded |= statement_to_string(r.graph, n) == "z := x";
  }
  EXPECT_TRUE(y_unfolded);
  EXPECT_TRUE(z_unfolded);
}

TEST(ConstProp, UncontestedParallelVariablesFold) {
  // Each component works on its own variables: constants flow freely.
  Graph g = lang::compile_or_throw(R"(
    par { a := 2; b := a + 1; } and { c := 5; d := c * 2; }
    e := b + d;
  )");
  ConstPropAnalysis an = analyze_constants(g);
  for (const char* v : {"a", "b", "c", "d"}) {
    EXPECT_FALSE(an.contested[g.find_var(v)->index()]) << v;
  }
  ConstPropResult r = propagate_constants(g);
  bool e_folded = false;
  for (NodeId n : r.graph.all_nodes()) {
    e_folded |= statement_to_string(r.graph, n) == "e := 13";
  }
  EXPECT_TRUE(e_folded);
}

TEST(ConstProp, SharedReadOnlyVariableFolds) {
  // Both components read k; nobody writes it after the sequential init.
  Graph g = lang::compile_or_throw(R"(
    k := 10;
    par { a := k + 1; } and { b := k + 2; }
  )");
  ConstPropResult r = propagate_constants(g);
  bool a_folded = false, b_folded = false;
  for (NodeId n : r.graph.all_nodes()) {
    a_folded |= statement_to_string(r.graph, n) == "a := 11";
    b_folded |= statement_to_string(r.graph, n) == "b := 12";
  }
  EXPECT_TRUE(a_folded);
  EXPECT_TRUE(b_folded);
}

TEST(ConstProp, NestedParallelStatements) {
  // Depth-2 nesting. y is written in a component nested in the first
  // outer component and read in one nested in the second: contested across
  // levels. a and b are written only under the first outer component, so
  // the outer join takes their values from its exit and d folds.
  Graph g = lang::compile_or_throw(R"(
    par {
      par { a := 2; } and { y := 5; }
      b := a + 1;
    } and {
      par { c := 4; } and { z := y; }
    }
    d := a + b;
  )");
  ConstPropAnalysis an = analyze_constants(g);
  EXPECT_TRUE(an.contested[g.find_var("y")->index()]);
  for (const char* v : {"a", "b", "c", "d", "z"}) {
    EXPECT_FALSE(an.contested[g.find_var(v)->index()]) << v;
  }
  ConstPropResult r = propagate_constants(g);
  validate_or_throw(r.graph);
  bool b_folded = false, d_folded = false, z_unfolded = false;
  for (NodeId n : r.graph.all_nodes()) {
    b_folded |= statement_to_string(r.graph, n) == "b := 3";
    d_folded |= statement_to_string(r.graph, n) == "d := 5";
    z_unfolded |= statement_to_string(r.graph, n) == "z := y";
  }
  EXPECT_TRUE(b_folded);
  EXPECT_TRUE(d_folded);
  EXPECT_TRUE(z_unfolded);
  auto v = check_sequential_consistency(g, r.graph);
  EXPECT_TRUE(v.sequentially_consistent);
  EXPECT_TRUE(v.behaviours_preserved);
}

TEST(ConstProp, TestConditionOperandsFold) {
  Graph g = lang::compile_or_throw("k := 3; if (k < 5) { x := 1; } y := 2;");
  ConstPropResult r = propagate_constants(g);
  bool folded_cond = false;
  for (NodeId n : r.graph.all_nodes()) {
    if (r.graph.node(n).kind == NodeKind::kTest) {
      folded_cond = statement_to_string(r.graph, n) == "if (1)";
    }
  }
  EXPECT_TRUE(folded_cond);
  // Semantics unchanged.
  auto v = check_sequential_consistency(g, r.graph);
  EXPECT_TRUE(v.sequentially_consistent);
  EXPECT_TRUE(v.behaviours_preserved);
}

TEST(ConstProp, DivisionFoldingMatchesInterpreter) {
  Graph g = lang::compile_or_throw("x := 7 / 0; y := 9 / 2;");
  ConstPropResult r = propagate_constants(g);
  bool x0 = false, y4 = false;
  for (NodeId n : r.graph.all_nodes()) {
    x0 |= statement_to_string(r.graph, n) == "x := 0";
    y4 |= statement_to_string(r.graph, n) == "y := 4";
  }
  EXPECT_TRUE(x0);
  EXPECT_TRUE(y4);
}

// The solve against the reference formulation on 240 random programs with
// loops, nested parallel statements, barriers, deterministic tests and
// more than 64 variables: every node's entry state, as analyze_constants
// re-joins it, equals the reference's. The one difference is a node the
// worklist never reaches: the reference leaves its entry all-Undef, the
// re-join pins contested variables to NonConst. Neither value folds.
TEST(ConstProp, MatchesReferenceOnRandomPrograms) {
  std::size_t with_loop = 0, with_nested_par = 0, with_barrier = 0;
  std::size_t with_test = 0, multi_word = 0, with_contested = 0;
  std::size_t constant_entries = 0;
  std::vector<CpValue> state;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(seed);
    RandomProgramOptions opt;
    opt.target_stmts = 8 + seed % 24;
    opt.max_par_depth = 3;
    opt.par_permille = 250;
    opt.while_permille = 120;
    opt.cond_permille = 400;
    opt.barrier_permille = 80;
    opt.num_vars = seed % 8 == 7 ? 120 : 3 + static_cast<int>(seed % 5);
    if (seed % 8 == 7) opt.target_stmts = 80;
    Graph g = random_program(rng, opt);
    validate_or_throw(g);

    with_loop += has_back_edge(g);
    bool nested = false, barrier = false, test = false;
    for (NodeId n : g.all_nodes()) {
      nested |= g.region_depth(g.node(n).region) >= 2;
      barrier |= g.node(n).kind == NodeKind::kBarrier;
      test |= g.node(n).kind == NodeKind::kTest;
    }
    with_nested_par += nested;
    with_barrier += barrier;
    with_test += test;
    multi_word += g.num_vars() > BitVector::kWordBits;

    ConstPropAnalysis cp = analyze_constants(g);
    ReferenceConstProp ref = reference_constants(g);
    bool contested = false;
    for (std::uint8_t c : cp.contested) contested |= c != 0;
    with_contested += contested;
    std::size_t mismatches = 0;
    for (NodeId n : g.all_nodes()) {
      cp.entry(n, state);
      ASSERT_EQ(state.size(), g.num_vars());
      for (std::size_t v = 0; v < g.num_vars(); ++v) {
        CpValue want = ref.entry[n.index()][v];
        if (!ref.reached[n.index()] && cp.contested[v]) {
          want = CpValue::nonconst();
        }
        mismatches += !(state[v] == want);
        constant_entries += state[v].is_const();
      }
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
  EXPECT_GT(with_loop, 20u);
  EXPECT_GT(with_nested_par, 20u);
  EXPECT_GT(with_barrier, 20u);
  EXPECT_GT(with_test, 20u);
  EXPECT_GT(with_contested, 20u);
  EXPECT_GT(multi_word, 5u);
  EXPECT_GT(constant_entries, 1000u);
}

// On loop-free graphs the forward RPO is topological, so the sparse
// worklist never wraps: the solve relaxes each node at most once. The
// graphs are the ones the default pipeline's constprop runs on. The count
// is what the analysis.constprop.relaxations counter records.
TEST(ConstProp, LoopFreeRelaxesEachNodeAtMostOnce) {
  for (std::size_t segments : {1u, 10u, 40u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Graph g = parallel_code_motion(families::large_family(segments, seed))
                    .graph;
      ASSERT_FALSE(has_back_edge(g));
      ConstPropAnalysis cp = analyze_constants(g);
      EXPECT_GT(cp.relaxations(), 0u);
      EXPECT_LE(cp.relaxations(), g.num_nodes())
          << segments << " segments, seed " << seed;
    }
  }
}

class ConstPropProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConstPropProperty, PreservesAllBehaviours) {
  Rng rng(GetParam());
  RandomProgramOptions opt;
  opt.target_stmts = 10;
  opt.max_par_depth = 2;
  opt.num_vars = 3;
  opt.while_permille = 30;
  opt.cond_permille = 300;  // deterministic conditions exercise folding
  Graph g = random_program(rng, opt);
  ConstPropResult r = propagate_constants(g);
  validate_or_throw(r.graph);
  EnumerationOptions eo;
  eo.max_states = 1u << 19;
  auto v = check_sequential_consistency(g, r.graph, {}, eo);
  if (!v.exhausted) GTEST_SKIP();
  EXPECT_TRUE(v.sequentially_consistent) << GetParam();
  EXPECT_TRUE(v.behaviours_preserved) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstPropProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace parcm
