#include "motion/pcm.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "dfa/direction.hpp"
#include "figures/figures.hpp"
#include "ir/printer.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "semantics/cost.hpp"
#include "semantics/equivalence.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

EnumerationOptions split_semantics() {
  EnumerationOptions o;
  o.atomic_assignments = false;
  return o;
}

// Insertion nodes of `term` in the parent (root) region.
std::size_t root_inserts(const MotionResult& r, const std::string& term) {
  std::size_t n = 0;
  for (const TermMotion& tm : r.terms) {
    if (term_to_string(r.graph, tm.term_value) != term) continue;
    for (NodeId id : tm.insert_nodes) {
      n += r.graph.node(id).region == r.graph.root_region();
    }
  }
  return n;
}

std::size_t total_inserts(const MotionResult& r, const std::string& term) {
  for (const TermMotion& tm : r.terms) {
    if (term_to_string(r.graph, tm.term_value) == term) {
      return tm.insert_nodes.size();
    }
  }
  return 0;
}

std::size_t total_replaces(const MotionResult& r, const std::string& term) {
  for (const TermMotion& tm : r.terms) {
    if (term_to_string(r.graph, tm.term_value) == term) {
      return tm.replaced.size();
    }
  }
  return 0;
}

TEST(PCM, ValidatesOnAllFigures) {
  for (const char* id :
       {"1", "1h", "2", "3a", "3c", "4", "5", "6", "8", "8n", "9", "9n",
        "10"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    MotionResult r = parallel_code_motion(g);
    validate_or_throw(r.graph);
    MotionResult rn = naive_parallel_code_motion(g);
    validate_or_throw(rn.graph);
  }
}

TEST(PCM, Fig2KeepsComputationInComponent) {
  Graph g = figures::fig2();
  MotionResult pcm = parallel_code_motion(g);
  // No insertion of c+b in sequential code.
  EXPECT_EQ(root_inserts(pcm, "c + b"), 0u);
  EXPECT_EQ(total_inserts(pcm, "c + b"), 1u);
  EXPECT_EQ(total_replaces(pcm, "c + b"), 2u);

  MotionResult naive = naive_parallel_code_motion(g);
  // The naive placement hoists into sequential code.
  EXPECT_EQ(root_inserts(naive, "c + b"), 1u);
}

TEST(PCM, Fig2ExecutionalOptimalityGap) {
  Graph g = figures::fig2();
  MotionResult pcm = parallel_code_motion(g);
  MotionResult naive = naive_parallel_code_motion(g);
  FixedOracle o1(0), o2(0), o3(0);
  CostResult orig = execution_time(g, o1);
  CostResult naive_t = execution_time(naive.graph, o2);
  CostResult pcm_t = execution_time(pcm.graph, o3);
  // Original: max(1,3) + 1 = 4. Naive: 1 + max(0,3) + 0 = 4 (no gain).
  // PCM: max(1,3) + 0 = 3.
  EXPECT_EQ(orig.time, 4u);
  EXPECT_EQ(naive_t.time, 4u);
  EXPECT_EQ(pcm_t.time, 3u);
  // Both transformations are computationally equal (the paper's point:
  // counting computations cannot separate them).
  EXPECT_EQ(naive_t.computations, pcm_t.computations);
  EXPECT_LT(naive_t.computations, orig.computations);
}

TEST(PCM, Fig3aNaiveHoistIsStillConsistentButPcmRefuses) {
  Graph g = figures::fig3a();
  MotionResult naive = naive_parallel_code_motion(g);
  // The naive transformation hoists c+b above the par (= Fig. 3b) and stays
  // sequentially consistent on this program.
  EXPECT_EQ(root_inserts(naive, "c + b"), 1u);
  auto verdict = check_sequential_consistency(g, naive.graph, {},
                                              split_semantics());
  ASSERT_TRUE(verdict.exhausted);
  EXPECT_TRUE(verdict.sequentially_consistent);

  // PCM refuses the hoist (profitability: without runtime information the
  // motion is not guaranteed profitable, Sec. 3.3.2).
  MotionResult pcm = parallel_code_motion(g);
  EXPECT_EQ(root_inserts(pcm, "c + b"), 0u);
  auto pv = check_sequential_consistency(g, pcm.graph, {}, split_semantics());
  ASSERT_TRUE(pv.exhausted);
  EXPECT_TRUE(pv.sequentially_consistent);
}

TEST(PCM, Fig3dHoistLosesSequentialConsistency) {
  // The paper's Fig. 3(d): the pure hoist of both recursive occurrences —
  // inconsistent under both assignment semantics.
  Graph g = figures::fig3c();
  Graph hoisted = figures::fig3d();
  for (bool atomic : {true, false}) {
    EnumerationOptions opts;
    opts.atomic_assignments = atomic;
    auto verdict =
        check_sequential_consistency(g, hoisted, all_var_names(g), opts);
    ASSERT_TRUE(verdict.exhausted);
    EXPECT_FALSE(verdict.sequentially_consistent) << "atomic=" << atomic;
    EXPECT_TRUE(verdict.violation_witness.has_value());
  }

  // PCM never hoists c+b out and stays consistent.
  MotionResult pcm = parallel_code_motion(g);
  auto pv = check_sequential_consistency(g, pcm.graph, {}, split_semantics());
  ASSERT_TRUE(pv.exhausted);
  EXPECT_TRUE(pv.sequentially_consistent);
  EXPECT_EQ(root_inserts(pcm, "c + b"), 0u);
}

TEST(PCM, Fig3bSingleRecursiveHoistStaysConsistent) {
  // The paper's Fig. 3(b): with only node 5 recursive the hoist is still
  // sequentially consistent (behaviours shrink).
  Graph g = figures::fig3a();
  Graph hoisted = figures::fig3b();
  auto verdict = check_sequential_consistency(g, hoisted, all_var_names(g));
  ASSERT_TRUE(verdict.exhausted);
  EXPECT_TRUE(verdict.sequentially_consistent);
  EXPECT_FALSE(verdict.behaviours_preserved);  // z = 8 is gone
}

TEST(PCM, Fig3cNaiveViolationIsAtomicToo) {
  // The paper: the witness is "impossible for any interleaving of (c),
  // regardless of considering assignments atomic or not".
  Graph g = figures::fig3c();
  MotionResult naive = naive_parallel_code_motion(g);
  auto verdict = check_sequential_consistency(g, naive.graph);
  ASSERT_TRUE(verdict.exhausted);
  EXPECT_FALSE(verdict.sequentially_consistent);
}

TEST(PCM, Fig4IndividualHoistsConsistentCombinationIsNot) {
  Graph g = figures::fig4();
  std::vector<std::string> observed = all_var_names(g);
  // (b) and (c): individually sequentially consistent.
  for (Graph individual : {figures::fig4b(), figures::fig4c()}) {
    auto v = check_sequential_consistency(g, individual, observed);
    ASSERT_TRUE(v.exhausted);
    EXPECT_TRUE(v.sequentially_consistent);
  }
  // (d): the combination forces x = 5 — impossible for (a) under either
  // semantics.
  for (bool atomic : {true, false}) {
    EnumerationOptions opts;
    opts.atomic_assignments = atomic;
    auto v = check_sequential_consistency(g, figures::fig4d(), observed, opts);
    ASSERT_TRUE(v.exhausted);
    EXPECT_FALSE(v.sequentially_consistent) << "atomic=" << atomic;
  }

  MotionResult pcm = parallel_code_motion(g);
  auto pv = check_sequential_consistency(g, pcm.graph, {}, split_semantics());
  ASSERT_TRUE(pv.exhausted);
  EXPECT_TRUE(pv.sequentially_consistent);
}

TEST(PCM, Fig4PrivatizationSplitsTemporaries) {
  Graph g = figures::fig4();
  MotionResult pcm = parallel_code_motion(g);
  // The statement contains a destroyer of a+b (the recursive assignment),
  // so in-component temporaries must be privatized.
  bool privatized = false;
  for (const TermMotion& tm : pcm.terms) {
    if (term_to_string(pcm.graph, tm.term_value) == "a + b") {
      privatized = !tm.private_temps.empty();
    }
  }
  EXPECT_TRUE(privatized);
}

TEST(PCM, Fig6NaiveCorruptsSemantics) {
  Graph g = figures::fig7();
  MotionResult naive = naive_parallel_code_motion(g);
  // Fig. 7: the naive earliest placement inserts before the parallel
  // statement...
  EXPECT_GE(root_inserts(naive, "a + b"), 1u);
  // ...and the suppressed initialization after the join corrupts the
  // semantics.
  auto verdict = check_sequential_consistency(g, naive.graph, {},
                                              split_semantics());
  ASSERT_TRUE(verdict.exhausted);
  EXPECT_FALSE(verdict.sequentially_consistent);
}

TEST(PCM, Fig6PcmSoundAndLocal) {
  Graph g = figures::fig7();
  MotionResult pcm = parallel_code_motion(g);
  auto verdict = check_sequential_consistency(g, pcm.graph, {},
                                              split_semantics());
  ASSERT_TRUE(verdict.exhausted);
  EXPECT_TRUE(verdict.sequentially_consistent);
}

TEST(PCM, Fig8UpSafeExitNeedsNoInitialization) {
  Graph g = figures::fig8();
  MotionResult pcm = parallel_code_motion(g);
  // w := a + b after the join is replaced...
  EXPECT_EQ(total_replaces(pcm, "a + b"), 2u);  // x and w
  // ...with no insertion in the root region (covered by the component).
  EXPECT_EQ(root_inserts(pcm, "a + b"), 0u);
  auto verdict = check_sequential_consistency(g, pcm.graph, {},
                                              split_semantics());
  ASSERT_TRUE(verdict.exhausted);
  EXPECT_TRUE(verdict.sequentially_consistent);
}

TEST(PCM, Fig8NegativeSiblingDestroys) {
  Graph g = figures::fig8_negative();
  MotionResult pcm = parallel_code_motion(g);
  // The destroying sibling forces an initialization for w after the join
  // (at the earliest point in the root region).
  EXPECT_GE(root_inserts(pcm, "a + b"), 1u);
  auto verdict = check_sequential_consistency(g, pcm.graph, {},
                                              split_semantics());
  ASSERT_TRUE(verdict.exhausted);
  EXPECT_TRUE(verdict.sequentially_consistent);
}

TEST(PCM, Fig9HoistsOnlyWhenAllComponentsCompute) {
  Graph pos = figures::fig9();
  MotionResult rp = parallel_code_motion(pos);
  EXPECT_EQ(root_inserts(rp, "a + b"), 1u);
  EXPECT_EQ(total_replaces(rp, "a + b"), 4u);

  Graph neg = figures::fig9_negative();
  MotionResult rn = parallel_code_motion(neg);
  EXPECT_EQ(root_inserts(rn, "a + b"), 0u);
}

TEST(PCM, Fig9ExecutionalImprovement) {
  Graph pos = figures::fig9();
  MotionResult rp = parallel_code_motion(pos);
  FixedOracle o1(0), o2(0);
  CostResult orig = execution_time(pos, o1);
  CostResult moved = execution_time(rp.graph, o2);
  // max(1,1,1) + 1 = 2 -> 1 + max(0,0,0) + 0 = 1.
  EXPECT_EQ(orig.time, 2u);
  EXPECT_EQ(moved.time, 1u);
}

TEST(PCM, Fig10TermPlacement) {
  Graph g = figures::fig10();
  MotionResult pcm = parallel_code_motion(g);
  validate_or_throw(pcm.graph);

  // a + b: hoisted to "node 1" — exactly one insertion, in the root region,
  // replacing p, q and t.
  EXPECT_EQ(total_inserts(pcm, "a + b"), 1u);
  EXPECT_EQ(root_inserts(pcm, "a + b"), 1u);
  EXPECT_EQ(total_replaces(pcm, "a + b"), 3u);

  // e + f: moved across the transparent parallel statement — one root
  // insertion covering both occurrences.
  EXPECT_EQ(total_inserts(pcm, "e + f"), 1u);
  EXPECT_EQ(root_inserts(pcm, "e + f"), 1u);
  EXPECT_EQ(total_replaces(pcm, "e + f"), 2u);

  // g + h / j + k: loop invariants stay inside their components.
  EXPECT_EQ(total_inserts(pcm, "g + h"), 1u);
  EXPECT_EQ(root_inserts(pcm, "g + h"), 0u);
  EXPECT_EQ(total_replaces(pcm, "g + h"), 2u);
  EXPECT_EQ(total_inserts(pcm, "j + k"), 1u);
  EXPECT_EQ(root_inserts(pcm, "j + k"), 0u);

  // c + d: remains inside the parallel statement.
  EXPECT_EQ(total_inserts(pcm, "c + d"), 1u);
  EXPECT_EQ(root_inserts(pcm, "c + d"), 0u);
  EXPECT_EQ(total_replaces(pcm, "c + d"), 1u);
}

TEST(PCM, Fig10LoopBodiesBecomeFree) {
  Graph g = figures::fig10();
  MotionResult pcm = parallel_code_motion(g);
  for (std::size_t trips : {0u, 1u, 5u, 20u}) {
    LoopOracle l1(trips), l2(trips);
    CostResult orig = execution_time(g, l1);
    CostResult moved = execution_time(pcm.graph, l2);
    EXPECT_LE(moved.time, orig.time) << trips;
    if (trips >= 2) {
      EXPECT_LT(moved.time, orig.time) << trips;
    }
  }
}

TEST(PCM, ExecutionalImprovementIsPerPath) {
  for (const char* id : {"1", "1h", "2", "3a", "3c", "4", "6", "8", "8n",
                         "9", "9n", "10"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    MotionResult pcm = parallel_code_motion(g);
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      auto pair = paired_execution_times(g, pcm.graph, seed);
      ASSERT_TRUE(pair.has_value()) << id << " seed " << seed;
      EXPECT_LE(pair->second.time, pair->first.time)
          << "figure " << id << " seed " << seed;
    }
  }
}

TEST(PCM, SequentialConsistencyOnAllSmallFigures) {
  for (const char* id :
       {"1", "1h", "3a", "3c", "4", "5", "8", "8n", "9", "9n"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    MotionResult pcm = parallel_code_motion(g);
    auto verdict = check_sequential_consistency(g, pcm.graph, {},
                                                split_semantics());
    ASSERT_TRUE(verdict.exhausted) << id;
    EXPECT_TRUE(verdict.sequentially_consistent) << id;
  }
}


// Whole-graph MUSTUSE, the formulation placement used before the cone
// solve: every replacement's predecessors seeded, a FIFO over the whole
// graph, and each node's equation over Graph::succs. The reference for
// MustUseCone.
std::vector<char> reference_mustuse(const MustUseProblem& p) {
  const Graph& g = *p.graph;
  std::vector<char> mustuse(g.num_nodes(), 0);
  std::deque<NodeId> worklist;
  std::vector<char> queued(g.num_nodes(), 0);
  auto enqueue_preds = [&](NodeId n) {
    for (NodeId m : g.preds(n)) {
      if (!queued[m.index()]) {
        queued[m.index()] = 1;
        worklist.push_back(m);
      }
    }
  };
  for (NodeId n : g.all_nodes()) {
    if (p.is_replace(n)) {
      mustuse[n.index()] = 1;
      enqueue_preds(n);
    }
  }
  while (!worklist.empty()) {
    NodeId n = worklist.front();
    worklist.pop_front();
    queued[n.index()] = 0;
    if (mustuse[n.index()] || p.is_replace(n)) continue;
    if (!p.is_transp(n) || p.is_blocking(n) || g.node(n).out_edges.empty()) {
      continue;
    }
    bool v = true;
    for (NodeId m : g.succs(n)) v = v && mustuse[m.index()];
    if (v) {
      mustuse[n.index()] = 1;
      enqueue_preds(n);
    }
  }
  return mustuse;
}

// The edges the cone is closed under: a dependent node's out-edges and
// ParBegin -> ParEnd.
std::vector<NodeId> cone_edges(const MustUseProblem& p, NodeId n) {
  const Graph& g = *p.graph;
  std::vector<NodeId> to;
  if (p.is_dependent(n)) {
    for (NodeId m : g.succs(n)) to.push_back(m);
  }
  if (g.node(n).kind == NodeKind::kParBegin) {
    to.push_back(g.par_stmt(g.node(n).par_stmt).end);
  }
  return to;
}

// Does the cone hold a cycle of its closure edges? (three-colour DFS)
bool cone_has_cycle(const MustUseProblem& p, const MustUseCone& cone) {
  // 0 unseen, 1 on the DFS stack, 2 finished
  std::vector<char> colour(p.graph->num_nodes(), 0);
  for (NodeId root : cone.nodes()) {
    if (colour[root.index()] != 0) continue;
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    colour[root.index()] = 1;
    while (!stack.empty()) {
      auto& [n, next] = stack.back();
      std::vector<NodeId> to = cone_edges(p, n);
      if (next == to.size()) {
        colour[n.index()] = 2;
        stack.pop_back();
        continue;
      }
      NodeId m = to[next++];
      if (colour[m.index()] == 1) return true;
      if (colour[m.index()] == 0) {
        colour[m.index()] = 1;
        stack.emplace_back(m, 0);
      }
    }
  }
  return false;
}

// The cone solve must give the whole-graph least fixpoint on every node of
// the cone, for every term and Earliest candidate of PCM's placement loop,
// against the blocking set that loop holds at that candidate. Anchor
// sinking must read MUSTUSE only inside the cone: MustUseCone::mustuse
// throws InternalError on a read outside it, so a run that completes read
// only cone nodes. The placement itself must not notice the observer.
TEST(PcmPlacement, ConeMatchesWholeGraphMustUseOnRandomPrograms) {
  std::size_t cones = 0, with_cycle = 0, with_jump = 0, with_blocking = 0;
  std::size_t small = 0, mismatches = 0;
  std::size_t programs_with_loop = 0, nested = 0, barrier = 0, tests = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(seed);
    RandomProgramOptions opt;
    opt.target_stmts = 16 + seed % 48;
    opt.max_par_depth = 3;
    opt.par_permille = 300;
    opt.while_permille = 150;
    opt.cond_permille = 400;
    opt.barrier_permille = 80;
    opt.num_vars = 3 + static_cast<int>(seed % 3);
    // Odd seeds add the pitfall shapes: post-join occurrences of a term a
    // sibling component modifies, which restart Earliest behind joins.
    opt.p2_shape_permille = seed % 2 ? 90 : 0;
    opt.p3_shape_permille = seed % 2 ? 150 : 0;
    Graph g = seed % 2 ? lang::lower(random_program_ast(rng, opt))
                       : random_program(rng, opt);
    validate_or_throw(g);
    DirectedView view(g, Direction::kForward);
    bool loop = false, deep = false, has_barrier = false, has_test = false;
    for (NodeId n : g.all_nodes()) {
      deep |= g.region_depth(g.node(n).region) >= 2;
      has_barrier |= g.node(n).kind == NodeKind::kBarrier;
      has_test |= g.node(n).kind == NodeKind::kTest;
      for (NodeId m : view.dir_succs(n)) {
        loop |= view.rpo_index(m) <= view.rpo_index(n);
      }
    }
    programs_with_loop += loop;
    nested += deep;
    barrier += has_barrier;
    tests += has_test;

    PlacementObserver check = [&](const MustUseProblem& p, NodeId anchor,
                                  const MustUseCone& cone) {
      ++cones;
      std::vector<char> want = reference_mustuse(p);
      bool blocking = false, jump = false;
      for (NodeId n : cone.nodes()) {
        if (cone.mustuse(n) != (want[n.index()] != 0)) {
          ++mismatches;
          ADD_FAILURE() << "seed " << seed << " term " << p.term.index()
                        << " anchor n" << anchor.value() << ": MUSTUSE(n"
                        << n.value() << ") differs";
        }
        blocking |= p.is_blocking(n);
        jump |= p.graph->node(n).kind == NodeKind::kParBegin;
      }
      with_blocking += blocking;
      with_jump += jump;
      with_cycle += cone_has_cycle(p, cone);
      small += cone.nodes().size() * 10 < p.graph->num_nodes();
    };
    // The naive variant hoists across joins, so its anchors descend
    // through more parallel statements.
    for (SafetyVariant variant :
         {SafetyVariant::kRefined, SafetyVariant::kNaive}) {
      CodeMotionConfig config;
      config.variant = variant;
      MotionResult watched;
      ASSERT_NO_THROW(watched = run_code_motion(g, config, check))
          << "seed " << seed;
      ASSERT_EQ(to_text(watched.graph),
                to_text(run_code_motion(g, config).graph))
          << "seed " << seed;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The sweep must reach the shapes the cone's argument covers.
  EXPECT_GE(programs_with_loop, 120u);
  EXPECT_GE(nested, 100u);
  EXPECT_GE(barrier, 100u);
  EXPECT_GE(tests, 100u);
  EXPECT_GE(cones, 1500u);
  EXPECT_GE(with_cycle, 40u);
  EXPECT_GE(with_jump, 50u);
  EXPECT_GE(with_blocking, 200u);
  EXPECT_GE(small, 1000u);
}

// The cone's contract for any blocking set and anchor, not only those the
// placement loop builds: it holds the anchor's successors (and its ParEnd
// when the anchor is a ParBegin), it is closed under the successors of
// its dependent nodes and under ParBegin -> ParEnd, and MUSTUSE on it
// equals the whole-graph solve. The placement loop's own blocking sets
// never cut every component of a transparent statement, so only arbitrary
// sets show that the ParEnd jump is needed.
TEST(PcmPlacement, ConeIsClosedAndExactForAnyBlockingSet) {
  std::size_t cones = 0, jump_only = 0, mismatches = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(seed);
    RandomProgramOptions opt;
    opt.target_stmts = 16 + seed % 32;
    opt.max_par_depth = 3;
    opt.par_permille = 300;
    opt.while_permille = 150;
    opt.cond_permille = 400;
    opt.barrier_permille = 80;
    opt.num_vars = 3 + static_cast<int>(seed % 3);
    Graph g = random_program(rng, opt);
    Rng pick(seed ^ 0xB10C);
    PlacementObserver check = [&](const MustUseProblem& p, NodeId,
                                  const MustUseCone&) {
      const Graph& graph = *p.graph;
      std::vector<char> blocking(graph.num_nodes(), 0);
      for (char& b : blocking) b = pick.below(100) < 30;
      MustUseProblem q = p;
      q.blocking = &blocking;
      NodeId anchor(static_cast<NodeId::underlying>(
          pick.below(graph.num_nodes())));
      MustUseCone cone;
      cone.solve(q, anchor);
      ++cones;
      std::vector<char> want = reference_mustuse(q);
      std::vector<NodeId> starts;
      for (NodeId m : graph.succs(anchor)) starts.push_back(m);
      if (graph.node(anchor).kind == NodeKind::kParBegin) {
        starts.push_back(graph.par_stmt(graph.node(anchor).par_stmt).end);
      }
      for (NodeId m : starts) EXPECT_TRUE(cone.contains(m));
      for (NodeId n : cone.nodes()) {
        for (NodeId m : cone_edges(q, n)) {
          EXPECT_TRUE(cone.contains(m))
              << "seed " << seed << ": n" << m.value() << " after n"
              << n.value() << " missing";
        }
        mismatches += cone.mustuse(n) != (want[n.index()] != 0);
        // A ParEnd none of whose predecessors is a dependent cone node
        // (the ParBegin or every component exit path is blocked) enters
        // only through the jump.
        if (graph.node(n).kind != NodeKind::kParBegin) continue;
        NodeId end = graph.par_stmt(graph.node(n).par_stmt).end;
        bool reached = false;
        for (NodeId m : graph.preds(end)) {
          reached |= cone.contains(m) && q.is_dependent(m);
        }
        jump_only += !reached;
      }
    };
    run_code_motion(g, CodeMotionConfig{}, check);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(cones, 600u);
  EXPECT_GE(jump_only, 25u);
}

TEST(PcmPlacement, ConeRejectsReadsOutsideIt) {
  // The Earliest anchor is the start node; its cone is the first
  // computation, a replacement that ends the cone. A read of any other
  // node throws.
  Graph g = lang::compile_or_throw("x := a + b; y := a + b;");
  std::size_t reads_outside = 0;
  PlacementObserver check = [&](const MustUseProblem& p, NodeId anchor,
                                const MustUseCone& c) {
    for (NodeId n : p.graph->all_nodes()) {
      if (c.contains(n)) continue;
      EXPECT_THROW(c.mustuse(n), InternalError)
          << "anchor n" << anchor.value();
      ++reads_outside;
    }
  };
  run_code_motion(g, CodeMotionConfig{}, check);
  EXPECT_GT(reads_outside, 0u);
}

// ROADMAP item 2's gate: placement work (the nodes the cone solves touch)
// grows at most 5x per 4x nodes on the large family. The counts are
// deterministic; the whole-graph solve did candidates x nodes.
TEST(PcmPlacement, ConeWorkScalesLinearlyOnLargeFamily) {
  auto work = [](std::size_t segments) {
    std::size_t nodes = 0;
    PlacementObserver count = [&](const MustUseProblem&, NodeId,
                                  const MustUseCone& cone) {
      nodes += cone.nodes().size();
    };
    run_code_motion(families::large_family(segments, 1), CodeMotionConfig{},
                    count);
    return nodes;
  };
  std::size_t at40 = work(40), at160 = work(160);
  EXPECT_GT(at40, 0u);
  EXPECT_LE(at160, 5 * at40) << at40 << " -> " << at160;
}

}  // namespace
}  // namespace parcm
