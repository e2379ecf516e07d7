// Unit coverage for the bytecode VM: lowering shape, seeded determinism,
// eval semantics, join/barrier protocol (including the zero-statement
// component edge case the lowering surfaced), cost parity against the
// analytic walker, and the per-path executional-improvement property on the
// paper's figures.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "figures/figures.hpp"
#include "lang/lower.hpp"
#include "semantics/cost.hpp"
#include "semantics/enumerator.hpp"
#include "verify/fuzz.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"
#include "vm/harness.hpp"

namespace parcm::vm {
namespace {

std::vector<std::string> all_vars(const Graph& g) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < g.num_vars(); ++i) {
    names.push_back(g.var_name(VarId(static_cast<std::uint32_t>(i))));
  }
  return names;
}

TEST(VmLowering, DisassemblyAndTables) {
  Graph g = figures::fig2();
  VmProgram p = lower_to_bytecode(g);
  EXPECT_GT(p.code.size(), 0u);
  EXPECT_EQ(p.num_regions, g.num_regions());
  EXPECT_EQ(p.num_vars, g.num_vars());
  EXPECT_EQ(p.par_stmts.size(), g.num_par_stmts());
  ASSERT_NE(p.root_entry(), kHaltPc);
  // Every region the graph has gets an entry point.
  for (Pc entry : p.region_entry) EXPECT_NE(entry, kHaltPc);
  std::string dis = p.to_string(&g);
  EXPECT_NE(dis.find("spawn"), std::string::npos);
  EXPECT_NE(dis.find("eval"), std::string::npos);
}

TEST(VmLowering, SplitModeDoublesAssignInstrs) {
  Graph g = lang::compile_or_throw("x := a + b; y := x;");
  LowerOptions split;  // default
  LowerOptions atomic;
  atomic.split_assignments = false;
  VmProgram ps = lower_to_bytecode(g, split);
  VmProgram pa = lower_to_bytecode(g, atomic);
  EXPECT_EQ(ps.code.size(), pa.code.size() + 2);  // two assignments split
}

TEST(VmExec, SequentialStoreAndArithmetic) {
  Graph g = lang::compile_or_throw(R"(
    a := 6; b := 7;
    x := a * b;
    y := x - a;
    z := x / b;
    q := a / c;
    lt := a < b;
    eq := x == x;
  )");
  VmProgram p = lower_to_bytecode(g);
  ExecResult r = run_seeded(p, 1);
  ASSERT_TRUE(r.ok);
  auto value = [&](const char* name) {
    auto v = g.find_var(name);
    return v ? r.store[v->index()] : 0;
  };
  EXPECT_EQ(value("x"), 42);
  EXPECT_EQ(value("y"), 36);
  EXPECT_EQ(value("z"), 6);
  EXPECT_EQ(value("q"), 0);  // division by (unset) zero yields 0
  EXPECT_EQ(value("lt"), 1);
  EXPECT_EQ(value("eq"), 1);
}

TEST(VmExec, BranchesFollowData) {
  Graph g = lang::compile_or_throw(R"(
    a := 3;
    if (a < 5) { x := 1; } else { x := 2; }
    if (a > 5) { y := 1; } else { y := 2; }
  )");
  VmProgram p = lower_to_bytecode(g);
  ExecResult r = run_seeded(p, 7);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.store[g.find_var("x")->index()], 1);
  EXPECT_EQ(r.store[g.find_var("y")->index()], 2);
}

TEST(VmExec, SameSeedSameRun) {
  Graph g = figures::fig10();
  VmProgram p = lower_to_bytecode(g);
  ExecResult a = run_seeded(p, 0xFEED);
  ExecResult b = run_seeded(p, 0xFEED);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.store, b.store);
  EXPECT_EQ(a.instrs, b.instrs);
}

TEST(VmExec, DistinctSeedsExploreDistinctInterleavings) {
  // A two-way race: x can end 1 or 2 depending on schedule; 64 seeds must
  // see both outcomes (each has probability ~1/2 per seed).
  Graph g = lang::compile_or_throw("par { x := 1; } and { x := 2; }");
  VmProgram p = lower_to_bytecode(g);
  std::set<std::int64_t> outcomes;
  for (std::uint64_t s = 0; s < 64; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok);
    outcomes.insert(r.store[g.find_var("x")->index()]);
  }
  EXPECT_EQ(outcomes, (std::set<std::int64_t>{1, 2}));
}

TEST(VmExec, SeededFinalsSubsetOfEnumeratedBehaviours) {
  Graph g = lang::compile_or_throw(R"(
    par { x := a + 1; a := 2; } and { a := x + 1; }
    y := a + x;
  )");
  std::vector<std::string> observed = all_vars(g);
  EnumerationOptions eopts;
  eopts.atomic_assignments = false;  // the split semantics of record
  eopts.partial_order_reduction = true;
  EnumerationResult ref = enumerate_executions(g, observed, eopts);
  ASSERT_TRUE(ref.exhausted);
  VmProgram p = lower_to_bytecode(g);  // split lowering (default)
  for (std::uint64_t s = 0; s < 64; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(ref.finals.count(r.store))
        << "seed " << s << " reached a final store the enumerator cannot";
  }
}

TEST(VmExec, StepBudgetTurnsSpinIntoNotOk) {
  Graph g = lang::compile_or_throw("while (*) { x := a + b; }");
  VmProgram p = lower_to_bytecode(g);
  FixedOracle always_loop(0);
  ExecLimits limits;
  limits.max_steps = 1000;
  ExecResult r = run_with_oracle(p, always_loop, limits);
  EXPECT_FALSE(r.ok);
}

// --- join/barrier protocol edge cases (the satellite the lowering
// surfaced: components with no statements must neither deadlock a sibling
// barrier nor skip the join) ---

TEST(VmJoin, EmptyComponentJoins) {
  Graph g = lang::compile_or_throw(R"(
    par { skip; } and { x := 1; }
    y := x + 1;
  )");
  VmProgram p = lower_to_bytecode(g);
  for (std::uint64_t s = 0; s < 16; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.store[g.find_var("y")->index()], 2);
  }
}

TEST(VmJoin, BarrierWithTerminatedSiblingReleases) {
  // The sibling never reaches a barrier; once it halts, the waiting
  // component must be excused and released.
  Graph g = lang::compile_or_throw(R"(
    par { barrier; x := 1; } and { y := 2; }
  )");
  VmProgram p = lower_to_bytecode(g);
  for (std::uint64_t s = 0; s < 32; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok) << "seed " << s << " deadlocked";
    EXPECT_EQ(r.store[g.find_var("x")->index()], 1);
    EXPECT_EQ(r.store[g.find_var("y")->index()], 2);
  }
}

TEST(VmJoin, BarrierInNestedParWithZeroStatementComponent) {
  Graph g = lang::compile_or_throw(R"(
    par {
      par { a := 1; barrier; b := a + 1; } and { skip; }
    } and {
      c := 3;
    }
    d := b + c;
  )");
  VmProgram p = lower_to_bytecode(g);
  for (std::uint64_t s = 0; s < 32; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok) << "seed " << s << " deadlocked";
    EXPECT_EQ(r.store[g.find_var("d")->index()], 5);
  }
}

TEST(VmJoin, TrailingBarrierResumesIntoHalt) {
  // Regression (found by the fuzz shape pool): a barrier that is the final
  // statement of its component patches its post-barrier edge to the
  // component exit, so the release re-enqueues the task with pc already at
  // kHaltPc. The executor must treat that resume as the halt itself, not
  // fetch through the sentinel. Covers barrier-only components and a
  // trailing barrier inside a nested par.
  Graph g = lang::compile_or_throw(R"(
    par {
      par { barrier; } and { a := 1; barrier; }
    } and {
      b := 2;
    }
    c := a + b;
  )");
  VmProgram p = lower_to_bytecode(g);
  for (std::uint64_t s = 0; s < 48; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok) << "seed " << s << " deadlocked";
    EXPECT_EQ(r.store[g.find_var("c")->index()], 3);
  }
}

TEST(VmJoin, BarrierPhasesOrderWrites) {
  Graph g = lang::compile_or_throw(R"(
    par { a := 1; barrier; u := b + 0; }
    and { b := 2; barrier; v := a + 0; }
  )");
  VmProgram p = lower_to_bytecode(g);
  for (std::uint64_t s = 0; s < 32; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.store[g.find_var("u")->index()], 2);
    EXPECT_EQ(r.store[g.find_var("v")->index()], 1);
  }
}

TEST(VmJoin, SingleNodeRegions) {
  Graph g = lang::compile_or_throw(R"(
    par { x := 1; } and { y := 2; } and { z := 3; }
  )");
  VmProgram p = lower_to_bytecode(g);
  ExecResult r = run_seeded(p, 5);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.store[g.find_var("x")->index()], 1);
  EXPECT_EQ(r.store[g.find_var("y")->index()], 2);
  EXPECT_EQ(r.store[g.find_var("z")->index()], 3);
}

TEST(VmJoin, SplitTempsCrossingRegionBoundaries) {
  // PCM on fig7 inserts initialization temps around the parallel statement;
  // the optimized graph must lower and run under every schedule, and its
  // finals (projected on the original variables) must stay inside the
  // original's behaviour set.
  Graph g = figures::fig7();
  Graph t = verify::apply_named_pipeline("pcm", g);
  std::vector<std::string> observed = all_vars(g);
  EnumerationOptions eopts;
  eopts.atomic_assignments = false;
  eopts.partial_order_reduction = true;
  EnumerationResult ref = enumerate_executions(g, observed, eopts);
  ASSERT_TRUE(ref.exhausted);
  VmProgram p = lower_to_bytecode(t);
  for (std::uint64_t s = 0; s < 48; ++s) {
    ExecResult r = run_seeded(p, s);
    ASSERT_TRUE(r.ok);
    std::vector<std::int64_t> projected;
    for (const std::string& name : observed) {
      auto v = t.find_var(name);
      projected.push_back(v ? r.store[v->index()] : 0);
    }
    EXPECT_TRUE(ref.finals.count(projected)) << "seed " << s;
  }
}

// --- cost mode: the VM and the analytic walker are two implementations of
// the same measure and must agree instruction for instruction ---

TEST(VmCost, MatchesAnalyticWalkerOnFigures) {
  const Graph figures[] = {figures::fig2(), figures::fig7(), figures::fig10(),
                           figures::fig1(), figures::fig1_hoistable()};
  for (const Graph& g : figures) {
    VmProgram p = lower_to_bytecode(g, LowerOptions{.split_assignments = false});
    for (std::uint64_t s = 0; s < 16; ++s) {
      SeededOracle vm_oracle(s);
      SeededOracle walker_oracle(s);
      ExecResult r = run_with_oracle(p, vm_oracle);
      CostResult c = execution_time(g, walker_oracle);
      ASSERT_TRUE(r.ok && c.ok);
      EXPECT_EQ(r.time, c.time) << "seed " << s;
      EXPECT_EQ(r.computations, c.computations) << "seed " << s;
    }
  }
}

TEST(VmCost, SplitAndAtomicLoweringsChargeTheSame) {
  Graph g = figures::fig2();
  VmProgram split = lower_to_bytecode(g);
  VmProgram atomic =
      lower_to_bytecode(g, LowerOptions{.split_assignments = false});
  for (std::uint64_t s = 0; s < 8; ++s) {
    SeededOracle o1(s), o2(s);
    ExecResult a = run_with_oracle(split, o1);
    ExecResult b = run_with_oracle(atomic, o2);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.computations, b.computations);
  }
}

TEST(VmCost, ExecutionalImprovementOnFigures) {
  // Theorem 3 empirically: on every sampled path the transformed program's
  // bottleneck time never exceeds the original's, and the VM agrees with
  // the analytic model on both sides.
  struct Case {
    Graph g;
    const char* pipeline;
  };
  const Case cases[] = {{figures::fig2(), "pcm"},   {figures::fig7(), "pcm"},
                        {figures::fig10(), "pcm"},  {figures::fig1(), "bcm"},
                        {figures::fig1(), "lcm"},
                        {figures::fig1_hoistable(), "bcm"},
                        {figures::fig1_hoistable(), "lcm"}};
  LowerOptions atomic;
  atomic.split_assignments = false;
  for (const Case& c : cases) {
    Graph t = verify::apply_named_pipeline(c.pipeline, c.g);
    VmProgram before = lower_to_bytecode(c.g, atomic);
    VmProgram after = lower_to_bytecode(t, atomic);
    for (std::uint64_t s = 0; s < 32; ++s) {
      SeededOracle ob(s), oa(s);
      ExecResult rb = run_with_oracle(before, ob);
      ExecResult ra = run_with_oracle(after, oa);
      ASSERT_TRUE(rb.ok && ra.ok);
      EXPECT_LE(ra.time, rb.time)
          << c.pipeline << " regressed bottleneck time on seed " << s;
      auto analytic = paired_execution_times(c.g, t, s);
      ASSERT_TRUE(analytic.has_value());
      EXPECT_EQ(rb.time, analytic->first.time) << "seed " << s;
      EXPECT_EQ(ra.time, analytic->second.time) << "seed " << s;
    }
  }
}

// --- corpus harness smoke ---

TEST(VmHarness, SmallCorpusIsCleanAndDeterministic) {
  CorpusOptions opts;
  opts.seed = 11;
  opts.programs = 12;
  opts.shapes = 4;
  opts.schedules = 4;
  CorpusReport a = run_exec_corpus(opts);
  EXPECT_EQ(a.regressed, 0u) << a.summary();
  EXPECT_EQ(a.cost_mismatches, 0u) << a.summary();
  EXPECT_GT(a.pairs, 0u);
  EXPECT_TRUE(a.ok());
  CorpusReport b = run_exec_corpus(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
}

}  // namespace
}  // namespace parcm::vm
