#include "motion/lcm.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "analyses/cache.hpp"
#include "analyses/earliest.hpp"
#include "dfa/direction.hpp"
#include "figures/figures.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "lang/unparse.hpp"
#include "motion/bcm.hpp"
#include "semantics/cost.hpp"
#include "semantics/equivalence.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

// Reference formulations of what compute_lcm_internals and
// total_temp_lifetime solve on the packed engine and on one parallel
// liveness solve: the FIFO loops LCM and the lifetime metric used before,
// one BitVector per node and equation (one flag per temporary for
// liveness), every node seeded. Each computes the same unique fixpoint by
// another route.
LcmInternals reference_lcm_internals(const Graph& g, const TermTable& terms,
                                     const LocalPredicates& preds,
                                     const MotionPredicates& mp) {
  std::size_t k = terms.size();
  LcmInternals res;

  // Delayability: greatest fixpoint from all-true, s* fixed at Earliest.
  res.delay_in.assign(g.num_nodes(), BitVector(k, true));
  std::vector<BitVector> delay_out(g.num_nodes(), BitVector(k, true));
  res.delay_in[g.start().index()] = mp.earliest[g.start().index()];
  delay_out[g.start().index()] = mp.earliest[g.start().index()];
  delay_out[g.start().index()].and_not(preds.comp(g.start()));
  std::deque<NodeId> worklist;
  std::vector<char> queued(g.num_nodes(), 0);
  for (NodeId n : g.all_nodes()) {
    if (n == g.start()) continue;
    worklist.push_back(n);
    queued[n.index()] = 1;
  }
  while (!worklist.empty()) {
    NodeId n = worklist.front();
    worklist.pop_front();
    queued[n.index()] = 0;
    BitVector in(k, true);
    for (NodeId m : g.preds(n)) in &= delay_out[m.index()];
    in |= mp.earliest[n.index()];
    BitVector out = in;
    out.and_not(preds.comp(n));
    if (in == res.delay_in[n.index()] && out == delay_out[n.index()]) {
      continue;
    }
    res.delay_in[n.index()] = std::move(in);
    delay_out[n.index()] = std::move(out);
    for (NodeId m : g.succs(n)) {
      if (m != g.start() && !queued[m.index()]) {
        queued[m.index()] = 1;
        worklist.push_back(m);
      }
    }
  }

  res.latest.assign(g.num_nodes(), BitVector(k));
  for (NodeId n : g.all_nodes()) {
    BitVector frontier(k, true);
    for (NodeId m : g.succs(n)) frontier &= res.delay_in[m.index()];
    frontier.invert();
    frontier |= preds.comp(n);
    res.latest[n.index()] = res.delay_in[n.index()] & frontier;
  }

  // Usefulness: least fixpoint from all-false.
  res.useful.assign(g.num_nodes(), BitVector(k));
  for (NodeId n : g.all_nodes()) {
    worklist.push_back(n);
    queued[n.index()] = 1;
  }
  while (!worklist.empty()) {
    NodeId n = worklist.front();
    worklist.pop_front();
    queued[n.index()] = 0;
    BitVector out(k);
    for (NodeId m : g.succs(n)) {
      BitVector not_latest = res.latest[m.index()];
      not_latest.invert();
      out |= (preds.comp(m) | res.useful[m.index()]) & not_latest;
    }
    if (out == res.useful[n.index()]) continue;
    res.useful[n.index()] = std::move(out);
    for (NodeId m : g.preds(n)) {
      if (!queued[m.index()]) {
        queued[m.index()] = 1;
        worklist.push_back(m);
      }
    }
  }
  return res;
}

// Backward may-liveness of the single variable v on plain graph edges.
std::vector<std::uint8_t> reference_live_in(const Graph& g, VarId v) {
  std::vector<std::uint8_t> live_in(g.num_nodes(), 0);
  std::vector<std::uint8_t> live_out(g.num_nodes(), 0);
  auto uses = [&](NodeId n) {
    const Node& node = g.node(n);
    if (node.kind == NodeKind::kAssign) return node.rhs.uses_var(v);
    if (node.kind == NodeKind::kTest) return node.cond->uses_var(v);
    return false;
  };
  std::deque<NodeId> worklist;
  std::vector<char> queued(g.num_nodes(), 1);
  for (NodeId n : g.all_nodes()) worklist.push_back(n);
  while (!worklist.empty()) {
    NodeId n = worklist.front();
    worklist.pop_front();
    queued[n.index()] = 0;
    std::uint8_t out = 0;
    for (NodeId m : g.succs(n)) out |= live_in[m.index()];
    bool defs = g.node(n).kind == NodeKind::kAssign && g.node(n).lhs == v;
    std::uint8_t in = uses(n) || (out && !defs);
    if (in == live_in[n.index()] && out == live_out[n.index()]) continue;
    live_in[n.index()] = in;
    live_out[n.index()] = out;
    for (NodeId m : g.preds(n)) {
      if (!queued[m.index()]) {
        queued[m.index()] = 1;
        worklist.push_back(m);
      }
    }
  }
  return live_in;
}

std::size_t reference_temp_lifetime(const Graph& g,
                                    const std::string& prefix = "h_") {
  std::size_t total = 0;
  for (std::size_t i = 0; i < g.num_vars(); ++i) {
    VarId v(static_cast<VarId::underlying>(i));
    if (g.var_name(v).rfind(prefix, 0) != 0) continue;
    for (std::uint8_t b : reference_live_in(g, v)) total += b;
  }
  return total;
}

// LCM's analyses on the join-split copy of g, as lazy_code_motion sets
// them up.
struct LcmSetup {
  Graph split;
  std::shared_ptr<const AnalysisBundle> analyses;
  MotionPredicates mp;

  explicit LcmSetup(const Graph& g) : split(g) {
    split_join_edges(split);
    analyses = analysis_cache().acquire(split);
    SafetyInfo safety =
        compute_safety(split, analyses->preds, SafetyVariant::kRefined);
    mp = compute_motion_predicates(split, analyses->preds, safety);
  }
  LcmInternals solve() const {
    return compute_lcm_internals(split, analyses->terms, analyses->preds, mp);
  }
  LcmInternals reference() const {
    return reference_lcm_internals(split, analyses->terms, analyses->preds,
                                   mp);
  }
};

TEST(LCM, RejectsParallelPrograms) {
  Graph g = lang::compile_or_throw("par { x := 1; } and { y := 2; }");
  EXPECT_THROW(lazy_code_motion(g), InternalError);
}

TEST(LCM, IsolationKeepsLoneComputation) {
  // A single computation with nothing to reuse it: BCM introduces a
  // pointless h := a + b; x := h pair, LCM keeps the original statement.
  Graph g = lang::compile_or_throw("x := a + b; y := x;");
  MotionResult lcm = lazy_code_motion(g);
  validate_or_throw(lcm.graph);
  EXPECT_TRUE(lcm.terms.empty());
  NodeId x = node_of_statement(lcm.graph, "x := a + b");
  EXPECT_TRUE(lcm.graph.node(x).rhs.is_term());

  MotionResult bcm = busy_code_motion(g);
  EXPECT_EQ(bcm.num_insertions(), 1u);  // the busy pair exists
}

TEST(LCM, FullRedundancyStillEliminated) {
  Graph g = lang::compile_or_throw("x := a + b; y := a + b; z := a + b;");
  MotionResult lcm = lazy_code_motion(g);
  validate_or_throw(lcm.graph);
  ASSERT_EQ(lcm.terms.size(), 1u);
  EXPECT_EQ(lcm.terms[0].insert_nodes.size(), 1u);
  EXPECT_EQ(lcm.terms[0].replaced.size(), 3u);
}

TEST(LCM, DelaysBelowUnusedRegion) {
  // BCM hoists to the start; LCM delays the initialization down to the
  // first use, past the unrelated prefix.
  const char* src = R"(
    p := 1; q := 2; r := 3; s := 4;
    x := a + b;
    y := a + b;
  )";
  Graph g = lang::compile_or_throw(src);
  MotionResult bcm = busy_code_motion(g);
  MotionResult lcm = lazy_code_motion(g);
  validate_or_throw(lcm.graph);
  std::size_t bcm_life = total_temp_lifetime(bcm.graph);
  std::size_t lcm_life = total_temp_lifetime(lcm.graph);
  EXPECT_LT(lcm_life, bcm_life);
  // Same computation counts on every path.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto pair = paired_execution_times(bcm.graph, lcm.graph, seed);
    ASSERT_TRUE(pair.has_value());
    EXPECT_EQ(pair->first.computations, pair->second.computations);
  }
}

TEST(LCM, IsolationRefusesMotionWithoutReuse) {
  // Both branches compute a+b exactly once with no further use: BCM hoists
  // (gaining nothing), LCM leaves the program untouched.
  Graph g = lang::compile_or_throw(
      "c := 9; if (*) { x := a + b; } else { u := a + b; }");
  MotionResult lcm = lazy_code_motion(g);
  validate_or_throw(lcm.graph);
  EXPECT_TRUE(lcm.terms.empty());
  MotionResult bcm = busy_code_motion(g);
  EXPECT_EQ(bcm.num_insertions(), 1u);
}

TEST(LCM, DelaysIntoBranchesWhenReused) {
  // With a use behind the join, LCM delays the initialization into the two
  // branch computations (latest points) instead of BCM's single hoist at
  // the start — shorter temporary lifetime, same computation counts.
  Graph g = lang::compile_or_throw(
      "c := 9; if (*) { x := a + b; } else { u := a + b; } y := a + b;");
  MotionResult lcm = lazy_code_motion(g);
  validate_or_throw(lcm.graph);
  ASSERT_EQ(lcm.terms.size(), 1u);
  EXPECT_EQ(lcm.terms[0].insert_nodes.size(), 2u);
  EXPECT_EQ(lcm.terms[0].replaced.size(), 3u);

  MotionResult bcm = busy_code_motion(g);
  EXPECT_EQ(bcm.terms[0].insert_nodes.size(), 1u);
  EXPECT_LT(total_temp_lifetime(lcm.graph), total_temp_lifetime(bcm.graph));
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto pair = paired_execution_times(bcm.graph, lcm.graph, seed);
    ASSERT_TRUE(pair.has_value());
    EXPECT_EQ(pair->first.computations, pair->second.computations);
  }
}

TEST(LCM, ComputationallyEqualToBcmOnFigures) {
  for (const char* id : {"1", "1h", "5"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    MotionResult bcm = busy_code_motion(g);
    MotionResult lcm = lazy_code_motion(g);
    validate_or_throw(lcm.graph);
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      auto pair = paired_execution_times(bcm.graph, lcm.graph, seed);
      ASSERT_TRUE(pair.has_value()) << id;
      EXPECT_EQ(pair->first.computations, pair->second.computations)
          << "figure " << id << " seed " << seed;
    }
  }
}

class LcmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LcmProperty, SemanticsPreservedAndNeverWorse) {
  Rng rng(GetParam());
  RandomProgramOptions opt;
  opt.max_par_depth = 0;
  opt.target_stmts = 12;
  opt.num_vars = 3;
  Graph g = random_program(rng, opt);
  MotionResult lcm = lazy_code_motion(g);
  validate_or_throw(lcm.graph);

  auto verdict = check_sequential_consistency(g, lcm.graph);
  if (verdict.exhausted) {
    EXPECT_TRUE(verdict.sequentially_consistent) << GetParam();
    EXPECT_TRUE(verdict.behaviours_preserved) << GetParam();
  }
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto pair = paired_execution_times(g, lcm.graph, seed * 31 + 7);
    if (!pair.has_value()) continue;
    EXPECT_LE(pair->second.time, pair->first.time) << GetParam();
  }
}

TEST_P(LcmProperty, ComputationallyMatchesBcmLifetimeNoWorse) {
  Rng rng(GetParam() + 400);
  RandomProgramOptions opt;
  opt.max_par_depth = 0;
  opt.target_stmts = 14;
  opt.num_vars = 3;
  Graph g = random_program(rng, opt);
  MotionResult bcm = busy_code_motion(g);
  MotionResult lcm = lazy_code_motion(g);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto pair = paired_execution_times(bcm.graph, lcm.graph, seed * 13 + 1);
    if (!pair.has_value()) continue;
    EXPECT_EQ(pair->first.computations, pair->second.computations)
        << GetParam();
  }
  EXPECT_LE(total_temp_lifetime(lcm.graph), total_temp_lifetime(bcm.graph))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LcmProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(LcmInternals, MatchTheFifoLoopsOnRandomSequentialPrograms) {
  // Sequential programs with loops, branches and deterministic tests; the
  // packed solves must reproduce the reference loops bit for bit, and the
  // one-solve lifetime metric the per-temporary FIFO solves. Random terms
  // rarely repeat unmodified, so each program is bracketed by a + b over
  // two variables it never writes: that value is reused across the random
  // control flow.
  RandomProgramOptions opt;
  opt.max_par_depth = 0;
  opt.target_stmts = 16;
  opt.num_vars = 3;
  opt.while_permille = 150;
  opt.if_permille = 200;
  opt.cond_permille = 300;
  std::size_t programs = 0, looping = 0, delayed_past_earliest = 0,
              reused_latest = 0, isolated_latest = 0, shorter_lifetime = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(seed * 7919 + 11);
    Graph g = lang::compile_or_throw(
        "w := a + b;\n" + lang::to_source(random_program_ast(rng, opt)) +
        "z := a + b;\n");
    LcmSetup setup(g);
    LcmInternals got = setup.solve();
    LcmInternals want = setup.reference();
    ASSERT_EQ(got.delay_in, want.delay_in) << "seed " << seed;
    ASSERT_EQ(got.latest, want.latest) << "seed " << seed;
    ASSERT_EQ(got.useful, want.useful) << "seed " << seed;

    MotionResult bcm = busy_code_motion(g);
    MotionResult lcm = lazy_code_motion(g);
    std::size_t bcm_life = total_temp_lifetime(bcm.graph);
    std::size_t lcm_life = total_temp_lifetime(lcm.graph);
    ASSERT_EQ(bcm_life, reference_temp_lifetime(bcm.graph)) << "seed " << seed;
    ASSERT_EQ(lcm_life, reference_temp_lifetime(lcm.graph)) << "seed " << seed;

    ++programs;
    const Graph& s = setup.split;
    DirectedView view(s, Direction::kForward);
    bool loop = false, delayed = false, reused = false, isolated = false;
    for (NodeId n : s.all_nodes()) {
      for (NodeId m : s.succs(n)) {
        loop = loop || view.rpo_index(m) <= view.rpo_index(n);
      }
      BitVector beyond = got.delay_in[n.index()];
      beyond.and_not(setup.mp.earliest[n.index()]);
      delayed = delayed || beyond.any();
      reused = reused || got.latest[n.index()].intersects(got.useful[n.index()]);
      BitVector lone = got.latest[n.index()] & setup.analyses->preds.comp(n);
      lone.and_not(got.useful[n.index()]);
      isolated = isolated || lone.any();
    }
    looping += loop ? 1 : 0;
    delayed_past_earliest += delayed ? 1 : 0;
    reused_latest += reused ? 1 : 0;
    isolated_latest += isolated ? 1 : 0;
    shorter_lifetime += lcm_life < bcm_life ? 1 : 0;
  }
  // The comparison covers loops, real delays, reused and isolated latest
  // points and lifetimes that laziness shortens, not just empty solutions.
  EXPECT_EQ(programs, 240u);
  EXPECT_GE(looping, 120u);
  EXPECT_GE(delayed_past_earliest, 200u);
  EXPECT_GE(reused_latest, 200u);
  EXPECT_GE(isolated_latest, 200u);
  EXPECT_GE(shorter_lifetime, 200u);
}

TEST(LcmInternals, DelayStopsAtTheConsumerInsideALoop) {
  // The computation in the loop body is the only consumer: delayability
  // reaches it and stops, latest sits on it, and no later computation
  // uses the value, so LCM leaves the loop alone.
  Graph g = lang::compile_or_throw(
      "p := 1; while (*) { x := a + b; } y := p;");
  LcmSetup setup(g);
  LcmInternals got = setup.solve();
  LcmInternals want = setup.reference();
  EXPECT_EQ(got.delay_in, want.delay_in);
  EXPECT_EQ(got.latest, want.latest);
  EXPECT_EQ(got.useful, want.useful);
  NodeId x = node_of_statement(setup.split, "x := a + b");
  NodeId y = node_of_statement(setup.split, "y := p");
  EXPECT_TRUE(got.latest[x.index()].test(0));
  EXPECT_FALSE(got.useful[x.index()].test(0));
  EXPECT_FALSE(got.delay_in[y.index()].test(0));
  EXPECT_TRUE(lazy_code_motion(g).terms.empty());
}

TEST(LcmInternals, ReuseBehindABranchMakesTheBranchPointsUseful) {
  Graph g = lang::compile_or_throw(
      "if (c < 1) { x := a + b; } else { u := a + b; } y := a + b;");
  LcmSetup setup(g);
  LcmInternals got = setup.solve();
  LcmInternals want = setup.reference();
  EXPECT_EQ(got.delay_in, want.delay_in);
  EXPECT_EQ(got.latest, want.latest);
  EXPECT_EQ(got.useful, want.useful);
  for (const char* stmt : {"x := a + b", "u := a + b"}) {
    NodeId n = node_of_statement(setup.split, stmt);
    EXPECT_TRUE(got.latest[n.index()].test(0)) << stmt;
    EXPECT_TRUE(got.useful[n.index()].test(0)) << stmt;
  }
  NodeId y = node_of_statement(setup.split, "y := a + b");
  EXPECT_FALSE(got.latest[y.index()].test(0));
  EXPECT_FALSE(got.useful[y.index()].test(0));
}

TEST(Liveness, TempLifetimeCountsLiveInNodes) {
  // h_t is live on entry to its two reads (the assignment and the test);
  // the back edge keeps h_u live at the loop head as well as at its read.
  Graph g = lang::compile_or_throw(
      "h_t := 1; y := h_t; if (h_t < 2) { skip; } "
      "h_u := 2; while (*) { z := h_u; }");
  EXPECT_EQ(total_temp_lifetime(g, "h_t"), reference_temp_lifetime(g, "h_t"));
  EXPECT_EQ(total_temp_lifetime(g, "h_u"), reference_temp_lifetime(g, "h_u"));
  EXPECT_EQ(total_temp_lifetime(g), reference_temp_lifetime(g));
  EXPECT_EQ(total_temp_lifetime(g, "h_t"), 2u);
  EXPECT_EQ(total_temp_lifetime(g, "h_u"), 2u);
}

TEST(Liveness, TempLifetimeCountsOnlyPrefix) {
  Graph g = lang::compile_or_throw("h_t := 1; y := h_t; other := 2;");
  EXPECT_GT(total_temp_lifetime(g, "h_"), 0u);
  EXPECT_EQ(total_temp_lifetime(g, "zz_"), 0u);
}

}  // namespace
}  // namespace parcm
