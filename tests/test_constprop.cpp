#include "analyses/constprop.hpp"

#include <gtest/gtest.h>

#include "ir/printer.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "semantics/equivalence.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

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
