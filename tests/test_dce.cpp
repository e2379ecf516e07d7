#include "motion/dce.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "dfa/direction.hpp"
#include "ir/printer.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "motion/pcm.hpp"
#include "motion/pipeline.hpp"
#include "motion/sinking.hpp"
#include "semantics/equivalence.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

// Reference formulation of parallel liveness: one BitVector per node and
// equation, every node seeded, FIFO order, interference from each node's
// enclosing statements over nodes_in_region_recursive. It computes the same
// unique least fixpoint as compute_parallel_liveness, by another route.
struct ReferenceLiveness {
  std::vector<BitVector> live_in;
  std::vector<BitVector> live_out;
  std::size_t relaxations = 0;
};

BitVector reference_uses(const Graph& g, NodeId n) {
  BitVector mask(g.num_vars());
  const Node& node = g.node(n);
  auto add = [&](const Rhs& rhs) {
    if (rhs.is_term()) {
      if (rhs.term().lhs.is_var()) mask.set(rhs.term().lhs.var_id().index());
      if (rhs.term().rhs.is_var()) mask.set(rhs.term().rhs.var_id().index());
    } else if (rhs.trivial().is_var()) {
      mask.set(rhs.trivial().var_id().index());
    }
  };
  if (node.kind == NodeKind::kAssign) add(node.rhs);
  if (node.kind == NodeKind::kTest) add(*node.cond);
  return mask;
}

ReferenceLiveness reference_liveness(const Graph& g,
                                     const BitVector& observed) {
  std::size_t k = g.num_vars();
  std::vector<BitVector> use(g.num_nodes(), BitVector(k));
  std::vector<BitVector> def(g.num_nodes(), BitVector(k));
  for (NodeId n : g.all_nodes()) {
    use[n.index()] = reference_uses(g, n);
    if (g.node(n).kind == NodeKind::kAssign) {
      def[n.index()].set(g.node(n).lhs.index());
    }
  }
  std::vector<BitVector> region_use(g.num_regions(), BitVector(k));
  for (std::size_t ri = 0; ri < g.num_regions(); ++ri) {
    RegionId r(static_cast<RegionId::underlying>(ri));
    for (NodeId n : g.nodes_in_region_recursive(r)) {
      region_use[ri] |= use[n.index()];
    }
  }
  std::vector<BitVector> sibling_use(g.num_nodes(), BitVector(k));
  for (NodeId n : g.all_nodes()) {
    for (const Graph::Enclosing& enc : g.enclosing_stmts(n)) {
      for (RegionId comp : g.par_stmt(enc.stmt).components) {
        if (comp != enc.component) {
          sibling_use[n.index()] |= region_use[comp.index()];
        }
      }
    }
  }

  ReferenceLiveness res;
  res.live_in.assign(g.num_nodes(), BitVector(k));
  res.live_out.assign(g.num_nodes(), BitVector(k));
  std::deque<NodeId> worklist;
  std::vector<char> queued(g.num_nodes(), 1);
  for (NodeId n : g.all_nodes()) worklist.push_back(n);
  while (!worklist.empty()) {
    NodeId n = worklist.front();
    worklist.pop_front();
    queued[n.index()] = 0;
    ++res.relaxations;
    BitVector out(k);
    if (n == g.end()) {
      out = observed;
    } else {
      for (NodeId m : g.succs(n)) out |= res.live_in[m.index()];
    }
    out |= sibling_use[n.index()];
    BitVector in = out;
    in.and_not(def[n.index()]);
    in |= use[n.index()];
    if (in == res.live_in[n.index()] && out == res.live_out[n.index()]) {
      continue;
    }
    res.live_in[n.index()] = std::move(in);
    res.live_out[n.index()] = std::move(out);
    for (NodeId m : g.preds(n)) {
      if (!queued[m.index()]) {
        queued[m.index()] = 1;
        worklist.push_back(m);
      }
    }
  }
  return res;
}

// Number of (node, variable) pairs where the solver and the reference
// disagree on live-in or live-out.
std::size_t liveness_mismatches(const Graph& g, const BitVector& observed) {
  ParallelLiveness live = compute_parallel_liveness(g, observed);
  ReferenceLiveness ref = reference_liveness(g, observed);
  std::size_t mismatches = 0;
  for (NodeId n : g.all_nodes()) {
    for (std::size_t v = 0; v < g.num_vars(); ++v) {
      VarId var(static_cast<VarId::underlying>(v));
      mismatches += live.live_in(n, var) != ref.live_in[n.index()].test(v);
      mismatches += live.live_out(n, var) != ref.live_out[n.index()].test(v);
    }
  }
  return mismatches;
}

// Number of (node, variable) pairs where LivenessQuery's on-demand answer
// differs from the full solve's live_in.
std::size_t query_mismatches(const Graph& g, const BitVector& observed) {
  ParallelLiveness live = compute_parallel_liveness(g, observed);
  LivenessQuery query;
  query.bind(g);
  std::size_t mismatches = 0;
  for (std::size_t v = 0; v < g.num_vars(); ++v) {
    VarId var(static_cast<VarId::underlying>(v));
    query.reset(var, observed.test(v));
    for (NodeId n : g.all_nodes()) {
      mismatches += query.live_in(n) != live.live_in(n, var);
    }
  }
  return mismatches;
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

std::size_t assigns(const Graph& g) {
  std::size_t n = 0;
  for (NodeId id : g.all_nodes()) n += g.node(id).kind == NodeKind::kAssign;
  return n;
}

TEST(Dce, OverwrittenAssignmentDies) {
  Graph g = lang::compile_or_throw("x := 1; x := 2; y := x;");
  DceResult r = eliminate_dead_assignments(g);
  validate_or_throw(r.graph);
  ASSERT_EQ(r.eliminated.size(), 1u);
  EXPECT_EQ(assigns(r.graph), 2u);
}

TEST(Dce, ObservableAtEndSurvives) {
  Graph g = lang::compile_or_throw("x := 1;");
  DceResult r = eliminate_dead_assignments(g);
  EXPECT_TRUE(r.eliminated.empty());
}

TEST(Dce, UnobservedVariableDies) {
  Graph g = lang::compile_or_throw("x := 1; y := 2;");
  DceOptions opts;
  opts.observed = {"y"};
  DceResult r = eliminate_dead_assignments(g, opts);
  EXPECT_EQ(r.eliminated.size(), 1u);
  EXPECT_EQ(assigns(r.graph), 1u);
}

TEST(Dce, CascadeEliminatesFaintChains) {
  // y feeds only x, x feeds nothing observed: both die, over two rounds.
  Graph g = lang::compile_or_throw("y := 5; x := y + 1; z := 3;");
  DceOptions opts;
  opts.observed = {"z"};
  DceResult r = eliminate_dead_assignments(g, opts);
  EXPECT_EQ(r.eliminated.size(), 2u);
  EXPECT_GE(r.rounds, 2u);
  EXPECT_EQ(assigns(r.graph), 1u);
}

TEST(Dce, BranchUseKeepsAssignmentAlive) {
  Graph g = lang::compile_or_throw(
      "x := 1; if (x < 2) { y := 1; } else { y := 2; }");
  DceOptions opts;
  opts.observed = {"y"};
  DceResult r = eliminate_dead_assignments(g, opts);
  // x is read by the test condition.
  for (NodeId n : r.eliminated) {
    EXPECT_NE(statement_to_string(g, n), "x := 1");
  }
}

TEST(Dce, SiblingReadKeepsAssignmentAlive) {
  // Sequentially x := 1 is overwritten before the (post-join) read, but the
  // sibling may read x between the two writes.
  Graph g = lang::compile_or_throw(R"(
    par { x := 1; x := 2; } and { y := x; }
  )");
  DceResult r = eliminate_dead_assignments(g);
  EXPECT_TRUE(r.eliminated.empty());
}

TEST(Dce, NoSiblingReadAllowsElimination) {
  Graph g = lang::compile_or_throw(R"(
    par { x := 1; x := 2; } and { y := 3; }
  )");
  DceResult r = eliminate_dead_assignments(g);
  ASSERT_EQ(r.eliminated.size(), 1u);
  // The first write is the dead one.
  auto finals_orig = enumerate_executions(g, {"x", "y"});
  auto finals_dce = enumerate_executions(r.graph, {"x", "y"});
  EXPECT_EQ(finals_orig.finals, finals_dce.finals);
}

TEST(Dce, NestedSiblingReadCounts) {
  Graph g = lang::compile_or_throw(R"(
    par {
      par { x := 1; x := 2; } and { u := x; }
    } and {
      v := 3;
    }
  )");
  DceResult r = eliminate_dead_assignments(g);
  EXPECT_TRUE(r.eliminated.empty());
}

TEST(Dce, LoopCarriedUseSurvives) {
  Graph g = lang::compile_or_throw(
      "s := 0; i := 0; while (i < 3) { s := s + i; i := i + 1; }");
  DceOptions opts;
  opts.observed = {"s"};
  DceResult r = eliminate_dead_assignments(g, opts);
  // i feeds the condition and itself; s is observed: nothing dies.
  EXPECT_TRUE(r.eliminated.empty());
}

TEST(Dce, LivenessExposed) {
  Graph g = lang::compile_or_throw("x := 1; y := x; x := 2;");
  BitVector observed(g.num_vars(), true);
  ParallelLiveness live = compute_parallel_liveness(g, observed);
  VarId x = *g.find_var("x");
  NodeId first = find_nodes(g, [](const Graph& gr, NodeId n) {
                   return gr.node(n).kind == NodeKind::kAssign;
                 })[0];
  EXPECT_TRUE(live.live_out(first, x));
}

// The solver against the reference formulation on 240 random programs:
// loops, nested parallel statements, barriers, deterministic tests, and
// more than 64 variables (two-word rows), each with every variable, every
// other one and none observed. With none observed, interference alone
// keeps a variable live after a trailing parallel statement, which only
// the seeding of reading siblings reaches. The on-demand LivenessQuery
// must give the solver's live_in at every (node, variable) under each
// mask: it relies on sibling reads and on stopping at redefinitions.
TEST(Liveness, MatchesReferenceOnRandomPrograms) {
  std::size_t with_loop = 0, with_nested_par = 0, with_barrier = 0;
  std::size_t multi_word = 0;
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
    bool nested = false, barrier = false;
    for (NodeId n : g.all_nodes()) {
      nested |= g.region_depth(g.node(n).region) >= 2;
      barrier |= g.node(n).kind == NodeKind::kBarrier;
    }
    with_nested_par += nested;
    with_barrier += barrier;
    multi_word += g.num_vars() > BitVector::kWordBits;

    BitVector all(g.num_vars(), true);
    BitVector subset(g.num_vars());
    for (std::size_t v = 0; v < g.num_vars(); v += 2) subset.set(v);
    BitVector none(g.num_vars());
    for (const BitVector* observed : {&all, &subset, &none}) {
      EXPECT_EQ(liveness_mismatches(g, *observed), 0u) << "seed " << seed;
      EXPECT_EQ(query_mismatches(g, *observed), 0u) << "seed " << seed;
    }
  }
  EXPECT_GT(with_loop, 20u);
  EXPECT_GT(with_nested_par, 20u);
  EXPECT_GT(with_barrier, 20u);
  EXPECT_GT(multi_word, 5u);
}

// Sinking edits the graph between queries and keeps the query's read
// index current. Move assignments as it does (a copy spliced in front of
// another node of some region, the original turned into a skip) through
// one bound query: its answers must still match a full solve of the
// edited graph, including where a move empties or fills a component's
// reads of a variable.
TEST(Liveness, QueryFollowsEditsThroughItsReadIndex) {
  std::size_t moves = 0, cross_region = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    RandomProgramOptions opt;
    opt.target_stmts = 12 + seed % 20;
    opt.max_par_depth = 3;
    opt.par_permille = 300;
    opt.while_permille = 100;
    opt.cond_permille = 400;
    opt.num_vars = 3 + static_cast<int>(seed % 3);
    Graph g = random_program(rng, opt);
    LivenessQuery query;
    query.bind(g);
    Rng pick(seed ^ 0x51D);
    for (int step = 0; step < 8; ++step) {
      std::vector<NodeId> assigns_now, targets;
      for (NodeId n : g.all_nodes()) {
        NodeKind kind = g.node(n).kind;
        if (kind == NodeKind::kAssign) assigns_now.push_back(n);
        if (kind == NodeKind::kAssign || kind == NodeKind::kSkip) {
          targets.push_back(n);
        }
      }
      if (assigns_now.empty()) break;
      NodeId a = assigns_now[pick.below(assigns_now.size())];
      NodeId before = targets[pick.below(targets.size())];
      if (before == a) continue;
      NodeId copy = g.new_assign(g.node(before).region, g.node(a).lhs,
                                 g.node(a).rhs);
      g.splice_before(copy, before);
      query.add_reads(copy);
      query.remove_reads(a);
      g.node(a).kind = NodeKind::kSkip;
      g.node(a).lhs = VarId();
      g.node(a).rhs = Rhs();
      ++moves;
      cross_region += g.node(a).region != g.node(copy).region;

      BitVector all(g.num_vars(), true);
      ParallelLiveness live = compute_parallel_liveness(g, all);
      std::size_t mismatches = 0;
      for (std::size_t v = 0; v < g.num_vars(); ++v) {
        VarId var(static_cast<VarId::underlying>(v));
        query.reset(var, true);
        for (NodeId n : g.all_nodes()) {
          mismatches += query.live_in(n) != live.live_in(n, var);
        }
      }
      ASSERT_EQ(mismatches, 0u) << "seed " << seed << " step " << step;
    }
  }
  EXPECT_GT(moves, 300u);
  EXPECT_GT(cross_region, 100u);
}

// On loop-free graphs the backward RPO is topological, so the sparse
// worklist never wraps: each node is relaxed at most once per solve. The
// graphs are the default pipeline's input and its graphs after pcm and
// after sinking.
TEST(Liveness, LoopFreeLargeFamilyRelaxesEachNodeAtMostOnce) {
  for (std::size_t segments : {1u, 10u, 40u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Graph input = families::large_family(segments, seed);
      Graph after_pcm = parallel_code_motion(input).graph;
      Graph after_sinking = sink_partially_dead_assignments(after_pcm).graph;
      for (const Graph* g : {&input, &after_pcm, &after_sinking}) {
        ASSERT_FALSE(has_back_edge(*g));
        BitVector all(g->num_vars(), true);
        BitVector v0(g->num_vars());
        v0.set(0);
        for (const BitVector* observed : {&all, &v0}) {
          ParallelLiveness live = compute_parallel_liveness(*g, *observed);
          EXPECT_GT(live.relaxations(), 0u);
          EXPECT_LE(live.relaxations(), g->num_nodes())
              << segments << " segments, seed " << seed;
          EXPECT_EQ(liveness_mismatches(*g, *observed), 0u);
        }
      }
    }
  }
}

// A graph with no variables has zero-word rows; the solve still runs.
TEST(Liveness, NoVariables) {
  Graph g = lang::compile_or_throw("skip;");
  ParallelLiveness live = compute_parallel_liveness(g, BitVector());
  EXPECT_GE(live.relaxations(), 1u);
}

class DceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DceProperty, PreservesObservableBehaviour) {
  Rng rng(GetParam());
  RandomProgramOptions opt;
  opt.target_stmts = 10;
  opt.max_par_depth = 2;
  opt.num_vars = 3;
  opt.while_permille = 30;
  Graph g = random_program(rng, opt);
  // Observe a subset so real eliminations happen.
  DceOptions opts;
  opts.observed = {"v0"};
  DceResult r = eliminate_dead_assignments(g, opts);
  validate_or_throw(r.graph);

  EnumerationOptions eo;
  eo.max_states = 1u << 19;
  auto a = enumerate_executions(g, {"v0"}, eo);
  auto b = enumerate_executions(r.graph, {"v0"}, eo);
  if (!a.exhausted || !b.exhausted) GTEST_SKIP();
  EXPECT_EQ(a.finals, b.finals) << "seed " << GetParam();
}

TEST_P(DceProperty, FullObservationStillSound) {
  Rng rng(GetParam() + 777);
  RandomProgramOptions opt;
  opt.target_stmts = 10;
  opt.max_par_depth = 2;
  opt.num_vars = 3;
  opt.while_permille = 30;
  Graph g = random_program(rng, opt);
  DceResult r = eliminate_dead_assignments(g);
  validate_or_throw(r.graph);
  auto v = check_sequential_consistency(g, r.graph);
  if (!v.exhausted) GTEST_SKIP();
  EXPECT_TRUE(v.sequentially_consistent) << GetParam();
  EXPECT_TRUE(v.behaviours_preserved) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DceProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace parcm
