// Meta-properties of the transformations: re-running passes stays sound
// and cost-neutral, printers cover every figure, and the transformations
// compose in any order.
#include <gtest/gtest.h>

#include "parcm.hpp"

namespace parcm {
namespace {

const char* kFigureIds[] = {"1",  "1h", "2",  "3a", "3b", "3c", "3d",
                            "4",  "4b", "4c", "4d", "5",  "6",  "8",
                            "8n", "9",  "9n", "10"};

TEST(Meta, SecondPcmRunNeverWorseAndConsistent) {
  for (const char* id : {"2", "8", "9", "10"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    Graph once = parallel_code_motion(g).graph;
    Graph twice = parallel_code_motion(once).graph;
    validate_or_throw(twice);
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      auto pair = paired_execution_times(once, twice, seed);
      ASSERT_TRUE(pair.has_value()) << id;
      EXPECT_LE(pair->second.time, pair->first.time) << id;
    }
    EnumerationOptions eo;
    eo.atomic_assignments = false;
    auto v = check_sequential_consistency(g, twice, all_var_names(g), eo);
    if (v.exhausted) {
      EXPECT_TRUE(v.sequentially_consistent) << id;
    }
  }
}

TEST(Meta, DceIsIdempotent) {
  Graph g = lang::compile_or_throw("x := 1; x := 2; y := x; z := 9;");
  DceOptions opts;
  opts.observed = {"y"};
  DceResult once = eliminate_dead_assignments(g, opts);
  DceResult twice = eliminate_dead_assignments(once.graph, opts);
  EXPECT_TRUE(twice.eliminated.empty());
}

TEST(Meta, ConstPropIsIdempotent) {
  Graph g = lang::compile_or_throw("x := 2; y := x + 3; z := y * y;");
  ConstPropResult once = propagate_constants(g);
  ConstPropResult twice = propagate_constants(once.graph);
  EXPECT_EQ(twice.operands_folded, 0u);
  EXPECT_EQ(twice.rhs_folded, 0u);
}

TEST(Meta, PrintersCoverEveryFigure) {
  for (const char* id : kFigureIds) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    std::string text = to_text(g);
    std::string dot = to_dot(g, id);
    EXPECT_GT(text.size(), 10u) << id;
    EXPECT_EQ(dot.find("digraph"), 0u) << id;
    for (NodeId n : g.all_nodes()) {
      EXPECT_FALSE(statement_to_string(g, n).empty()) << id;
    }
  }
}

TEST(Meta, ReorderedPipelineStillSound) {
  Graph g = figures::fig10();
  Pipeline p;
  p.add_constprop().add_dce().add_pcm().add_sinking().add_validate();
  PipelineResult r = p.run(g);
  validate_or_throw(r.graph);
  LoopOracle l1(3), l2(3);
  CostResult before = execution_time(g, l1);
  CostResult after = execution_time(r.graph, l2);
  EXPECT_LE(after.time, before.time);
}

TEST(Meta, AllFiguresSurviveEveryPass) {
  for (const char* id : kFigureIds) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    validate_or_throw(parallel_code_motion(g).graph);
    validate_or_throw(naive_parallel_code_motion(g).graph);
    validate_or_throw(propagate_constants(g).graph);
    validate_or_throw(eliminate_dead_assignments(g).graph);
    validate_or_throw(sink_partially_dead_assignments(g).graph);
    if (g.num_par_stmts() == 0) {
      validate_or_throw(busy_code_motion(g).graph);
      validate_or_throw(lazy_code_motion(g).graph);
    }
  }
}

TEST(Meta, TransformsPreserveVariableNames) {
  Graph g = figures::fig2();
  MotionResult r = parallel_code_motion(g);
  for (std::size_t v = 0; v < g.num_vars(); ++v) {
    VarId id(static_cast<VarId::underlying>(v));
    EXPECT_EQ(g.var_name(id), r.graph.var_name(id));
  }
}

TEST(Meta, NodeIdsStableUnderTransformation) {
  // Transformations only append nodes; original ids keep their statements'
  // identity (up to RHS replacement), which the cost pairing relies on.
  Graph g = figures::fig10();
  MotionResult r = parallel_code_motion(g);
  for (NodeId n : g.all_nodes()) {
    EXPECT_EQ(g.node(n).kind, r.graph.node(n).kind) << n.value();
    EXPECT_EQ(g.node(n).label, r.graph.node(n).label) << n.value();
  }
}

}  // namespace
}  // namespace parcm
