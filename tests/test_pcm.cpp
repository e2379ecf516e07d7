#include "motion/pcm.hpp"

#include <gtest/gtest.h>

#include "figures/figures.hpp"
#include "ir/printer.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "semantics/cost.hpp"
#include "semantics/equivalence.hpp"

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

}  // namespace
}  // namespace parcm
