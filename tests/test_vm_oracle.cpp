// The VM as a differential oracle: oracle-vs-oracle consistency on the
// fuzz shape pool, miscompile detection, and the byte-identity contracts
// of the campaign and corpus payloads across job counts.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "figures/figures.hpp"
#include "lang/lower.hpp"
#include "obs/metrics.hpp"
#include "semantics/cost.hpp"
#include "semantics/enumerator.hpp"
#include "verify/fuzz.hpp"
#include "verify/vm_oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"
#include "vm/harness.hpp"

namespace parcm::verify {
namespace {

TEST(VmOracle, SeededSchedulesSubsetOfEnumeratedBehaviours) {
  // The satellite property: for every shape-pool program small enough for
  // exact enumeration, 64 seeded VM schedules only ever reach final stores
  // the POR enumerator also reaches under the split semantics.
  RandomProgramOptions gen = default_fuzz_gen();
  std::size_t enumerable = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    lang::Program ast = fuzz_program(21, i, gen);
    Graph g = lang::lower(ast);
    if (g.num_nodes() > 72) continue;
    std::vector<std::string> observed;
    for (std::size_t v = 0; v < g.num_vars(); ++v) {
      observed.push_back(g.var_name(VarId(static_cast<std::uint32_t>(v))));
    }
    EnumerationOptions opts;
    opts.atomic_assignments = false;
    opts.partial_order_reduction = true;
    opts.max_states = 1u << 19;
    EnumerationResult ref = enumerate_executions(g, observed, opts);
    if (!ref.exhausted) continue;
    ++enumerable;
    vm::VmProgram p = vm::lower_to_bytecode(g);
    vm::ExecLimits limits;
    limits.max_steps = 40000;
    for (std::uint64_t s = 0; s < 64; ++s) {
      vm::ExecResult r = vm::run_seeded(p, s, limits);
      if (!r.ok) continue;  // spinning nondeterministic loop
      EXPECT_TRUE(ref.finals.count(r.store))
          << "program " << i << " seed " << s
          << " reached a final store outside the enumerated behaviour set";
    }
  }
  EXPECT_GE(enumerable, 8u) << "shape pool no longer enumerable; property "
                               "checked on too few programs";
}

TEST(VmOracle, CleanPcmValidatesOnFigures) {
  for (const Graph& g :
       {figures::fig2(), figures::fig7(), figures::fig10()}) {
    Graph t = apply_named_pipeline("pcm", g);
    Verdict v = vm_differential_check(g, t);
    EXPECT_TRUE(v.ok()) << v.summary();
  }
}

TEST(VmOracle, NaiveOnFig7DivergesWithPitfallSuspects) {
  Graph g = figures::fig7();
  InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";
  Graph t = apply_named_pipeline("pcm", g, inject);
  Verdict v = vm_differential_check(g, t);
  ASSERT_EQ(Status::kDiverged, v.status) << v.summary();
  ASSERT_TRUE(v.witness.has_value());
  EXPECT_EQ(v.witness->size(), v.observed.size());
  // Divergences carry the same P1-P3 provenance as the exact oracle —
  // when the remark stream exists at all (OBS=OFF compiles it out).
#if PARCM_OBS_ENABLED
  EXPECT_FALSE(v.pitfalls.empty()) << v.summary();
#endif
}

// The escalation enumerates the original once, at 8x the state budget:
// the budget does not change the enumeration's order, so a run at 1x
// would only visit a prefix of the 8x run's states.
TEST(VmOracle, EscalationEnumeratesTheOriginalOnce) {
#if !PARCM_OBS_ENABLED
  GTEST_SKIP() << "library built with PARCM_OBS=OFF: no counters";
#endif
  Graph g = figures::fig7();
  InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";
  Graph t = apply_named_pipeline("pcm", g, inject);
  VmBudget budget;
  budget.max_states = 4;  // truncates at 1x
  obs::Registry& reg = obs::registry();
  std::uint64_t runs = reg.counter("semantics.enum.runs");
  std::uint64_t escalations = reg.counter("verify.vm_escalations");
  Verdict v = vm_differential_check(g, t, budget);
  EXPECT_NE(Status::kEquivalent, v.status) << v.summary();
  EXPECT_EQ(reg.counter("verify.vm_escalations") - escalations, 1u);
  EXPECT_EQ(reg.counter("semantics.enum.runs") - runs, 1u);

  // Where the original fits the 1x budget, the 8x run is that run.
  EnumerationOptions opts;
  opts.atomic_assignments = false;
  opts.partial_order_reduction = true;
  EnumerationResult at1 = enumerate_executions(g, v.observed, opts);
  ASSERT_TRUE(at1.exhausted);
  opts.max_states *= 8;
  EnumerationResult at8 = enumerate_executions(g, v.observed, opts);
  EXPECT_TRUE(at8.exhausted);
  EXPECT_EQ(at1.finals, at8.finals);
  EXPECT_EQ(at1.states_explored, at8.states_explored);
}

TEST(VmOracle, VerdictIsDeterministic) {
  Graph g = figures::fig7();
  InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";
  Graph t = apply_named_pipeline("pcm", g, inject);
  Verdict a = vm_differential_check(g, t);
  Verdict b = vm_differential_check(g, t);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.original_behaviours, b.original_behaviours);
}

TEST(VmOracle, InjectedMiscompilesCaughtByVmOracle) {
  // The store-divergence miscompile classes the exact oracle catches on
  // this campaign must also fall to seeded VM schedules. no-privatize races
  // on a shared temporary, so its divergent interleaving window is narrow
  // under uniform scheduling — it needs the 256-schedule budget where the
  // always-divergent naive transfer falls to the default already.
  for (const char* mode : {"naive", "no-privatize"}) {
    FuzzOptions opt;
    opt.seed = 7;
    opt.count = 30;
    opt.pipeline = "pcm";
    opt.oracle = "vm";
    opt.inject.enabled = true;
    opt.inject.mode = mode;
    opt.budget.max_states = 1u << 15;  // escalation budget only
    opt.vm_budget.schedules = 256;
    opt.vm_budget.max_states = 1u << 15;
    opt.reduce = false;
    FuzzOutcome out = run_fuzz(opt);
    EXPECT_EQ(out.vm_checked, out.programs);
    EXPECT_GT(out.divergences, 0u)
        << "vm oracle missed every '" << mode
        << "' miscompile: " << out.summary();
    EXPECT_EQ(out.oracle_disagreements, 0u) << out.summary();
  }
}

TEST(VmOracle, NoSinkInjectionCaughtByExecutionalOracle) {
  // "no-sink" is the executional-regression ablation: the unsunk output
  // stays sequentially consistent (Ablation.SinkingKeepsSemantics), so no
  // store-differential oracle — exact or VM — can flag it. The VM catches
  // it on the other axis: on the double-pay program's else-path the
  // temporary initializes twice, and some seeded schedule takes strictly
  // more VM bottleneck time than the original program.
  const char* source = R"(
    b := 2;
    par {
      a := 1;
      if (*) { u := a + b; } else { skip; }
    } and {
      c := 3;
    }
    w := a + b;
  )";
  Graph g = lang::compile_or_throw(source);
  InjectOptions inject;
  inject.enabled = true;
  inject.mode = "no-sink";
  Graph t = apply_named_pipeline("pcm", g, inject);

  // Store-differentially clean, as the ablation contract promises.
  Verdict v = vm_differential_check(g, t);
  EXPECT_TRUE(v.ok()) << v.summary();

  // ...but the executional oracle sees the double initialization.
  vm::LowerOptions lopts;
  lopts.split_assignments = false;
  vm::VmProgram before = vm::lower_to_bytecode(g, lopts);
  vm::VmProgram after = vm::lower_to_bytecode(t, lopts);
  vm::ExecLimits limits;
  bool regressed = false;
  for (std::uint64_t seed = 0; seed < 64 && !regressed; ++seed) {
    SeededOracle oracle_before(seed);
    SeededOracle oracle_after(seed);
    vm::ExecResult rb = vm::run_with_oracle(before, oracle_before, limits);
    vm::ExecResult ra = vm::run_with_oracle(after, oracle_after, limits);
    auto analytic = paired_execution_times(g, t, seed);
    ASSERT_TRUE(rb.ok && ra.ok && analytic.has_value()) << seed;
    // The VM's phase algebra stays glued to the analytic cost model even
    // on a deliberately regressed pipeline.
    EXPECT_EQ(rb.time, analytic->first.time) << seed;
    EXPECT_EQ(ra.time, analytic->second.time) << seed;
    if (ra.time > rb.time) regressed = true;
  }
  EXPECT_TRUE(regressed)
      << "no schedule saw the unsunk double initialization";
}

TEST(VmOracle, BothOraclesAgreeOnCleanCampaign) {
  FuzzOptions opt;
  opt.seed = 5;
  opt.count = 15;
  opt.pipeline = "pcm";
  opt.oracle = "both";
  FuzzOutcome out = run_fuzz(opt);
  EXPECT_EQ(out.programs, 15u);
  EXPECT_EQ(out.vm_checked, 15u);
  EXPECT_EQ(out.divergences, 0u) << out.summary();
  EXPECT_EQ(out.vm_divergences, 0u) << out.summary();
  EXPECT_EQ(out.oracle_disagreements, 0u) << out.summary();
  EXPECT_TRUE(out.ok());
}

TEST(VmOracle, CampaignJsonByteIdenticalAcrossJobs) {
  // The batch-driver byte-identity contract (test_batch_determinism.cpp)
  // extends to the VM oracle: the parcm-fuzz-v1 payload is a pure function
  // of the options, independent of worker count.
  std::string reference;
  for (std::size_t jobs : {1u, 4u, 16u}) {
    FuzzOptions opt;
    opt.seed = 9;
    opt.count = 12;
    opt.pipeline = "pcm";
    opt.oracle = "both";
    opt.jobs = jobs;
    FuzzOutcome out = run_fuzz(opt);
    std::string json = out.to_json();
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(reference, json) << "jobs=" << jobs;
    }
  }
}

TEST(VmOracle, CorpusJsonByteIdenticalAcrossJobs) {
  // Same contract for the BENCH_exec data source (parcm-vm-corpus-v1).
  std::string reference;
  for (std::size_t jobs : {1u, 4u, 16u}) {
    vm::CorpusOptions opt;
    opt.seed = 13;
    opt.programs = 12;
    opt.shapes = 4;
    opt.schedules = 4;
    opt.jobs = jobs;
    vm::CorpusReport report = vm::run_exec_corpus(opt);
    std::string json = report.to_json();
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(reference, json) << "jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace parcm::verify
