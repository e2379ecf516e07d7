#include "motion/pipeline.hpp"

#include <gtest/gtest.h>

#include "figures/figures.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "obs/metrics.hpp"
#include "semantics/cost.hpp"
#include "semantics/equivalence.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

TEST(Pipeline, EmptyPipelineIsIdentity) {
  Graph g = lang::compile_or_throw("x := a + b;");
  PipelineResult r = Pipeline().run(g);
  EXPECT_TRUE(r.passes.empty());
  EXPECT_EQ(r.graph.num_nodes(), g.num_nodes());
}

TEST(Pipeline, StatsPerPass) {
  Graph g = lang::compile_or_throw("x := a + b; y := a + b;");
  Pipeline p;
  p.add_pcm().add_validate();
  PipelineResult r = p.run(g);
  ASSERT_EQ(r.passes.size(), 2u);
  EXPECT_EQ(r.passes[0].name, "pcm");
  EXPECT_GT(r.passes[0].actions, 0u);
  EXPECT_GT(r.passes[0].nodes_after, r.passes[0].nodes_before);
  EXPECT_EQ(r.passes[1].name, "validate");
  std::string report = r.to_string();
  EXPECT_NE(report.find("pcm"), std::string::npos);
}

TEST(Pipeline, CustomPass) {
  Graph g = lang::compile_or_throw("x := 1;");
  Pipeline p;
  bool ran = false;
  p.add("custom", [&ran](Graph&, std::size_t* actions) {
    ran = true;
    *actions = 42;
  });
  PipelineResult r = p.run(g);
  EXPECT_TRUE(ran);
  EXPECT_EQ(r.passes[0].actions, 42u);
}

TEST(Pipeline, DefaultPipelineOnFig10) {
  Graph g = figures::fig10();
  PipelineResult r = default_pipeline().run(g);
  validate_or_throw(r.graph);
  // PCM moved things; constprop folds the literal prologue into the
  // temporaries; DCE can then remove prologue assignments that became dead.
  ASSERT_EQ(r.passes.size(), 8u);
  EXPECT_GT(r.passes[0].actions, 0u);  // pcm
  EXPECT_GT(r.passes[2].actions, 0u);  // constprop
  LoopOracle l1(4), l2(4);
  CostResult before = execution_time(g, l1);
  CostResult after = execution_time(r.graph, l2);
  EXPECT_LT(after.time, before.time);
}

TEST(Pipeline, ConstpropEnablesDce) {
  // After propagation, y's value feeds nothing any more once z is folded.
  Graph g = lang::compile_or_throw("y := 2; z := y + 1; w := z + 0;");
  Pipeline p;
  p.add_constprop().add_dce({"w"});
  PipelineResult r = p.run(g);
  validate_or_throw(r.graph);
  // Everything folds to constants; y and z die.
  EXPECT_EQ(r.passes[1].actions, 2u);
  auto finals = enumerate_executions(r.graph, {"w"});
  EXPECT_EQ(finals.finals,
            (std::set<std::vector<std::int64_t>>{{3}}));
}

#if PARCM_OBS_ENABLED
// Runs the default pipeline on `g` with a fresh registry installed and
// returns the counter snapshot the run produced.
std::map<std::string, std::uint64_t> counters_of_run(const Graph& g) {
  obs::Registry local;
  obs::Registry* prev = obs::set_registry(&local);
  default_pipeline().run(g);
  obs::set_registry(prev);
  return local.counters();
}

TEST(Pipeline, SolverIterationCountsRecordedOnFig2) {
  Graph g = figures::fig2();
  std::map<std::string, std::uint64_t> c = counters_of_run(g);
  // The packed solver ran and reported its worklist relaxations.
  EXPECT_GT(c["dfa.packed.solves"], 0u);
  EXPECT_GT(c["dfa.packed.relaxations"], 0u);
  EXPECT_GT(c["dfa.packed.bit_words"], 0u);
  EXPECT_GT(c["motion.liveness.relaxations"], 0u);
  EXPECT_EQ(c["dfa.packed.relaxations"],
            c["dfa.packed.summary_relaxations"] +
                c["dfa.packed.value_relaxations"]);
}

TEST(Pipeline, SolverIterationCountsDeterministic) {
  int fig = 2;
  for (Graph g : {figures::fig2(), figures::fig7()}) {
    std::map<std::string, std::uint64_t> first = counters_of_run(g);
    std::map<std::string, std::uint64_t> second = counters_of_run(g);
    EXPECT_GT(first["dfa.packed.relaxations"], 0u) << "figure " << fig;
    EXPECT_EQ(first, second) << "figure " << fig;
    fig = 7;
  }
}

TEST(Pipeline, PassStatsCarrySolverCounters) {
  obs::Registry local;
  obs::Registry* prev = obs::set_registry(&local);
  PipelineResult r = default_pipeline().run(figures::fig2());
  obs::set_registry(prev);
  ASSERT_FALSE(r.passes.empty());
  ASSERT_EQ(r.passes[0].name, "pcm");
  // The pcm pass is attributed the solver work it caused, not the whole
  // registry: relaxations land on pcm, liveness on dce.
  EXPECT_GT(r.passes[0].counter("dfa.packed.relaxations"), 0u);
  EXPECT_GT(r.passes[0].wall_ms, 0.0);
  std::string json = r.to_json();
  EXPECT_NE(json.find("\"passes\""), std::string::npos);
  EXPECT_NE(json.find("dfa.packed.relaxations"), std::string::npos);
}
#endif  // PARCM_OBS_ENABLED

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, DefaultPipelinePreservesBehaviourAndCost) {
  Rng rng(GetParam());
  RandomProgramOptions opt;
  opt.target_stmts = 9;
  opt.max_par_depth = 2;
  opt.num_vars = 3;
  opt.while_permille = 30;
  Graph g = random_program(rng, opt);
  PipelineResult r = default_pipeline().run(g);
  validate_or_throw(r.graph);

  EnumerationOptions eo;
  eo.atomic_assignments = false;
  eo.max_states = 1u << 19;
  auto v = check_sequential_consistency(g, r.graph, {}, eo);
  if (!v.exhausted) GTEST_SKIP();
  EXPECT_TRUE(v.sequentially_consistent) << GetParam();

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto pair = paired_execution_times(g, r.graph, seed * 3 + 1);
    if (!pair.has_value()) continue;
    EXPECT_LE(pair->second.time, pair->first.time) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace parcm
