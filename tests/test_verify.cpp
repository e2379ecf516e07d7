// Translation-validation subsystem: the unparser round-trip, the
// differential oracle (exact + sampled), the delta-debugging reducer, the
// fuzz driver with miscompile injection, and the pipeline/obs wiring.
#include <gtest/gtest.h>

#include <set>

#include "figures/figures.hpp"
#include "lang/lower.hpp"
#include "lang/parser.hpp"
#include "lang/unparse.hpp"
#include "motion/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "semantics/equivalence.hpp"
#include "verify/fuzz.hpp"
#include "verify/reduce.hpp"
#include "verify/verify.hpp"

namespace parcm {
namespace {

lang::Program parse_or_die(std::string_view source) {
  DiagnosticSink sink;
  std::optional<lang::Program> p = lang::parse(source, sink);
  EXPECT_TRUE(p.has_value()) << sink.to_string();
  return p.has_value() ? std::move(*p) : lang::Program{};
}

// ---------------------------------------------------------------- unparse

TEST(Unparse, RoundTripsEveryFigure) {
  for (const char* id : {"1", "1h", "2", "3a", "3c", "4", "5", "6", "7", "8",
                         "8n", "9", "9n", "10"}) {
    std::string source(figures::figure_source(id));
    lang::Program p = parse_or_die(source);
    std::string rendered = lang::to_source(p);
    lang::Program again = parse_or_die(rendered);
    // Structural identity via the lowered graphs and a fixpoint render.
    Graph g1 = lang::lower(p);
    Graph g2 = lang::lower(again);
    ASSERT_EQ(g1.num_nodes(), g2.num_nodes()) << "figure " << id;
    for (NodeId n : g1.all_nodes()) {
      EXPECT_EQ(g1.node(n).kind, g2.node(n).kind) << "figure " << id;
    }
    EXPECT_EQ(rendered, lang::to_source(again)) << "figure " << id;
  }
}

TEST(Unparse, RoundTripsRandomAstPrograms) {
  RandomProgramOptions opt = verify::default_fuzz_gen();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    lang::Program p = random_program_ast(rng, opt);
    std::string rendered = lang::to_source(p);
    lang::Program again = parse_or_die(rendered);
    EXPECT_EQ(rendered, lang::to_source(again)) << "seed " << seed;
  }
}

TEST(Unparse, PreservesLabelsCommentsAndNondet) {
  const char* source =
      "x := a + b @occ;\n"
      "if (*) {\n"
      "  skip;\n"
      "}\n"
      "par {\n"
      "  barrier;\n"
      "} and {\n"
      "  while (x < 3) {\n"
      "    x := x + 1;\n"
      "  }\n"
      "}\n";
  lang::Program p = parse_or_die(source);
  EXPECT_EQ(source, lang::to_source(p));
}

// ----------------------------------------------------------------- oracle

TEST(Oracle, IdentityIsEquivalent) {
  Graph g = figures::fig7();
  verify::Verdict v = verify::differential_check(g, g);
  EXPECT_TRUE(v.exact);
  EXPECT_EQ(verify::Status::kEquivalent, v.status);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.original_behaviours, v.transformed_behaviours);
}

TEST(Oracle, PcmOnFiguresValidates) {
  for (const char* id : {"2", "3a", "3c", "4", "7", "8", "10"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    Graph t = verify::apply_named_pipeline("pcm", g);
    verify::Verdict v = verify::differential_check(g, t);
    EXPECT_TRUE(v.exact) << "figure " << id;
    EXPECT_TRUE(v.ok()) << "figure " << id << ": " << v.summary();
  }
}

TEST(Oracle, NaiveOnFig7DivergesWithWitness) {
  Graph g = figures::fig7();
  verify::InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";
  Graph t = verify::apply_named_pipeline("pcm", g, inject);
  verify::Verdict v = verify::differential_check(g, t);
  ASSERT_TRUE(v.exact);
  EXPECT_EQ(verify::Status::kDiverged, v.status);
  EXPECT_FALSE(v.ok());
  ASSERT_TRUE(v.witness.has_value());
  EXPECT_EQ(v.witness->size(), v.observed.size());
  EXPECT_NE(std::string::npos, v.summary().find("diverged"));
}

TEST(Oracle, DivergenceClassifiedAgainstRemarkProvenance) {
#if !PARCM_OBS_ENABLED
  GTEST_SKIP() << "library built with PARCM_OBS=OFF: no remark stream";
#endif
  Graph g = figures::fig7();
  verify::InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";

  obs::RemarkSink sink;
  sink.set_enabled(true);
  obs::RemarkSink* prev = obs::set_remark_sink(&sink);
  Graph t = verify::apply_named_pipeline("pcm", g, inject);
  obs::set_remark_sink(prev);
  std::vector<obs::Remark> captured = sink.snapshot();

  verify::Verdict v = verify::differential_check(g, t, {}, &captured);
  ASSERT_EQ(verify::Status::kDiverged, v.status);
  // Fig. 7 is the up-/down-safety pitfall; the naive pass's remark stream
  // must offer P3 among the suspects.
  EXPECT_NE(v.pitfalls.end(),
            std::find(v.pitfalls.begin(), v.pitfalls.end(), "P3"))
      << v.summary();
}

TEST(Oracle, SplitSemanticsIsTheDefault) {
  // Remark 2.1: PCM splits x := t into h := t; x := h. Under atomic
  // semantics that split alone "adds" behaviours and a correct
  // transformation would be flagged; the default budget must therefore use
  // the split model.
  Graph g = lang::compile_or_throw(R"(
    par {
      v3 := 0 + v2;
    } and {
      v2 := 0 + 4;
      v3 := v2;
    }
  )");
  Graph t = verify::apply_named_pipeline("pcm", g);
  verify::Verdict split = verify::differential_check(g, t);
  EXPECT_TRUE(split.ok()) << split.summary();

  verify::Budget atomic;
  atomic.split_assignments = false;
  verify::Verdict v = verify::differential_check(g, t, atomic);
  EXPECT_EQ(verify::Status::kDiverged, v.status);
}

TEST(Oracle, SampledModeIsDeterministic) {
  Graph g = figures::fig7();
  Graph t = verify::apply_named_pipeline("pcm", g);
  verify::Budget b;
  b.max_exact_nodes = 1;  // force the sampled path
  b.samples = 64;
  verify::Verdict v1 = verify::differential_check(g, t, b);
  verify::Verdict v2 = verify::differential_check(g, t, b);
  EXPECT_FALSE(v1.exact);
  EXPECT_EQ(v1.status, v2.status);
  EXPECT_EQ(v1.original_behaviours, v2.original_behaviours);
  EXPECT_EQ(v1.transformed_behaviours, v2.transformed_behaviours);
  EXPECT_TRUE(v1.ok()) << v1.summary();
}

TEST(Oracle, SampledModeSeesInjectedDivergence) {
  // The fig7 naive divergence must also be visible to pure sampling: the
  // witness state is reachable by a plain left-to-right-ish schedule.
  Graph g = figures::fig7();
  verify::InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";
  Graph t = verify::apply_named_pipeline("pcm", g, inject);
  verify::Budget b;
  b.max_exact_nodes = 1;
  b.samples = 256;
  verify::Verdict v = verify::differential_check(g, t, b);
  EXPECT_FALSE(v.exact);
  EXPECT_EQ(verify::Status::kDiverged, v.status) << v.summary();
}

TEST(Oracle, CountersMove) {
#if !PARCM_OBS_ENABLED
  GTEST_SKIP() << "library built with PARCM_OBS=OFF: no counters";
#endif
  std::uint64_t checks = obs::registry().counter("verify.checks");
  Graph g = figures::fig2();
  verify::differential_check(g, g);
  EXPECT_GT(obs::registry().counter("verify.checks"), checks);
  EXPECT_GT(obs::registry().counter("verify.exact"), 0u);
}

// An original whose enumeration truncates under the state budget admits
// no exact verdict, so the oracle enumerates it once, never enumerates the
// transformed side, and reuses that enumeration as the sampled fallback's
// reference; the deep probe at 8x is the second and last enumeration.
TEST(Oracle, TruncatedOriginalIsEnumeratedOnceBeforeTheDeepProbe) {
#if !PARCM_OBS_ENABLED
  GTEST_SKIP() << "library built with PARCM_OBS=OFF: no counters";
#endif
  Graph g = figures::fig7();
  verify::InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";  // a transformed-only behaviour: the probe runs
  Graph t = verify::apply_named_pipeline("pcm", g, inject);
  verify::Budget b;
  b.max_states = 4;
  b.samples = 256;
  obs::Registry& reg = obs::registry();
  std::uint64_t runs = reg.counter("semantics.enum.runs");
  std::uint64_t truncated = reg.counter("semantics.enum.truncated");
  std::uint64_t probes = reg.counter("verify.deep_probes");
  verify::Verdict v = verify::differential_check(g, t, b);
  EXPECT_FALSE(v.exact) << v.summary();
  EXPECT_EQ(reg.counter("verify.deep_probes") - probes, 1u);
  EXPECT_GE(reg.counter("semantics.enum.truncated") - truncated, 1u);
  EXPECT_EQ(reg.counter("semantics.enum.runs") - runs, 2u);
}

TEST(Oracle, PitfallTagsFromRemarkStream) {
  std::vector<obs::Remark> remarks;
  obs::Remark r;
  r.reasons = {obs::RemarkReason::kRecursiveSplit};
  remarks.push_back(r);
  std::vector<std::string> tags = verify::pitfalls_from_remarks(remarks);
  ASSERT_EQ(1u, tags.size());
  EXPECT_EQ("P2", tags[0]);
}

// ---------------------------------------------------------------- reducer

TEST(Reduce, ShrinksToEmptyUnderTruePredicate) {
  lang::Program p = parse_or_die(figures::figure_source("7"));
  verify::ReduceResult r = verify::reduce_program(
      p, [](const lang::Program&) { return true; });
  EXPECT_EQ(0u, verify::count_statements(r.program));
  EXPECT_LT(r.stmts_after, r.stmts_before);
  EXPECT_GT(r.checks, 0u);
}

TEST(Reduce, KeepsWhatThePredicateNeeds) {
  lang::Program p = parse_or_die(
      "a := 1;\n"
      "b := 2;\n"
      "par {\n"
      "  x := a + b;\n"
      "} and {\n"
      "  y := a - b;\n"
      "}\n"
      "z := x + y;\n");
  // Predicate: the program still contains a par statement.
  verify::ReduceResult r =
      verify::reduce_program(p, [](const lang::Program& q) {
        for (const lang::Stmt& s : q.body) {
          if (s.kind == lang::StmtKind::kPar) return true;
        }
        return false;
      });
  bool has_par = false;
  for (const lang::Stmt& s : r.program.body) {
    has_par |= s.kind == lang::StmtKind::kPar;
  }
  EXPECT_TRUE(has_par);
  // Everything else is deletable: only the par skeleton survives.
  EXPECT_LE(verify::count_statements(r.program), 2u);
}

TEST(Reduce, MinimizesRealDivergenceBelowTenNodes) {
  // End-to-end: a real injected miscompile on fig7 reduced to a handful of
  // nodes while staying a confirmed exact divergence.
  lang::Program p = parse_or_die(figures::figure_source("7"));
  verify::InjectOptions inject;
  inject.enabled = true;
  inject.mode = "naive";
  auto diverges = [&inject](const lang::Program& q) {
    Graph g = lang::lower(q);
    Graph t = verify::apply_named_pipeline("pcm", g, inject);
    verify::Verdict v = verify::differential_check(g, t);
    return v.exact && v.status == verify::Status::kDiverged;
  };
  ASSERT_TRUE(diverges(p));
  verify::ReduceResult r = verify::reduce_program(p, diverges);
  EXPECT_TRUE(diverges(r.program));
  EXPECT_LE(lang::lower(r.program).num_nodes(), 10u)
      << lang::to_source(r.program);
}

TEST(Reduce, ResultIsParseableSource) {
  lang::Program p = parse_or_die(figures::figure_source("4"));
  verify::ReduceResult r = verify::reduce_program(
      p, [](const lang::Program& q) { return !q.body.empty(); });
  std::string source = lang::to_source(r.program);
  DiagnosticSink sink;
  EXPECT_TRUE(lang::parse(source, sink).has_value()) << source;
}

// ------------------------------------------------------------ fuzz driver

TEST(Fuzz, ProgramStreamIsDeterministic) {
  RandomProgramOptions gen = verify::default_fuzz_gen();
  for (std::size_t i = 0; i < 5; ++i) {
    lang::Program a = verify::fuzz_program(99, i, gen);
    lang::Program b = verify::fuzz_program(99, i, gen);
    EXPECT_EQ(lang::to_source(a), lang::to_source(b)) << "index " << i;
  }
  EXPECT_NE(lang::to_source(verify::fuzz_program(99, 0, gen)),
            lang::to_source(verify::fuzz_program(99, 1, gen)));
  EXPECT_NE(verify::fuzz_program_seed(99, 0), verify::fuzz_program_seed(99, 1));
  EXPECT_NE(verify::fuzz_program_seed(99, 0), verify::fuzz_program_seed(98, 0));
}

TEST(Fuzz, CleanCampaignHasNoDivergences) {
  verify::FuzzOptions opt;
  opt.seed = 5;
  opt.count = 15;
  opt.pipeline = "pcm";
  verify::FuzzOutcome out = verify::run_fuzz(opt);
  EXPECT_EQ(15u, out.programs);
  EXPECT_TRUE(out.ok()) << out.summary();
  EXPECT_EQ(0u, out.divergences);
}

TEST(Fuzz, BcmAndLcmPipelinesRunClean) {
  for (const char* pipeline : {"bcm", "lcm"}) {
    verify::FuzzOptions opt;
    opt.seed = 5;
    opt.count = 10;
    opt.pipeline = pipeline;
    verify::FuzzOutcome out = verify::run_fuzz(opt);
    EXPECT_TRUE(out.ok()) << pipeline << ": " << out.summary();
  }
}

TEST(Fuzz, InjectedMiscompileIsCaughtAndReduced) {
  verify::FuzzOptions opt;
  opt.seed = 7;
  opt.count = 30;
  opt.pipeline = "pcm";
  opt.inject.enabled = true;
  opt.inject.mode = "naive";
  // Cheap base budget keeps this test fast; a sampled alarm is escalated to
  // an exact re-check at 8x automatically, so recorded failures stay exact.
  opt.budget.max_states = 1u << 15;
  verify::FuzzOutcome out = verify::run_fuzz(opt);
  ASSERT_GT(out.divergences, 0u) << out.summary();
  ASSERT_FALSE(out.failures.empty());
  const verify::FuzzFailure& f = out.failures.front();
  EXPECT_TRUE(f.verdict.exact);
  // The reducer only deletes statements, so the floor depends on the find:
  // the Fig. 7 case above bottoms out under 10 nodes, a campaign find needs
  // its init/par/post-join skeleton — allow the par bracketing overhead.
  EXPECT_LE(f.reduced_nodes, 12u) << f.reduced_source;
  // The reduced source replays: it still diverges under the same injection.
  Graph g = lang::compile_or_throw(f.reduced_source);
  Graph t = verify::apply_named_pipeline("pcm", g, opt.inject);
  verify::Verdict v = verify::differential_check(g, t);
  EXPECT_EQ(verify::Status::kDiverged, v.status) << f.reduced_source;
}

TEST(Fuzz, SlowerPathFailsTheCampaign) {
  // no-sink keeps anchors where a path initializes the temporary twice.
  // The output stays sequentially consistent, so neither oracle can flag
  // it; the campaign's cost check over seeded paths does.
  verify::FuzzOptions opt;
  opt.seed = 7;
  opt.count = 8;
  opt.pipeline = "pcm";
  opt.inject.enabled = true;
  opt.inject.mode = "no-sink";
  opt.budget.max_states = 1u << 12;
  opt.reduce = false;
  verify::FuzzOutcome out = verify::run_fuzz(opt);
  EXPECT_EQ(0u, out.divergences) << out.summary();
  EXPECT_EQ(4u, out.slower) << out.summary();
  EXPECT_EQ((std::vector<std::size_t>{1, 2, 4, 6}), out.slower_indices);
  EXPECT_FALSE(out.ok());
  EXPECT_NE(std::string::npos, out.to_json().find("\"slower\":4"));
  EXPECT_NE(std::string::npos, out.summary().find("4 programs slower"));

  opt.inject.enabled = false;
  verify::FuzzOutcome clean = verify::run_fuzz(opt);
  EXPECT_EQ(0u, clean.slower) << clean.summary();
  EXPECT_TRUE(clean.ok()) << clean.summary();
}

TEST(Fuzz, CampaignIsReproducible) {
  verify::FuzzOptions opt;
  opt.seed = 7;
  opt.count = 12;
  opt.inject.enabled = true;
  opt.inject.mode = "no-privatize";
  verify::FuzzOutcome a = verify::run_fuzz(opt);
  verify::FuzzOutcome b = verify::run_fuzz(opt);
  EXPECT_EQ(a.divergences, b.divergences);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Fuzz, RejectsInjectionForPipelinesWithoutCodeMotion) {
  Graph g = figures::fig2();
  verify::InjectOptions inject;
  inject.enabled = true;
  EXPECT_THROW(verify::apply_named_pipeline("dce", g, inject), InternalError);
  EXPECT_THROW(verify::apply_named_pipeline("bogus", g), InternalError);
}

TEST(Fuzz, OutcomeJsonHasSchemaAndCounts) {
  verify::FuzzOptions opt;
  opt.seed = 3;
  opt.count = 4;
  verify::FuzzOutcome out = verify::run_fuzz(opt);
  std::string json = out.to_json();
  EXPECT_NE(std::string::npos, json.find("\"parcm-fuzz-v1\""));
  EXPECT_NE(std::string::npos, json.find("\"programs\""));
  EXPECT_NE(std::string::npos, json.find("\"divergences\""));
}

// --------------------------------------------------------------- pipeline

TEST(Pipeline, ValidateSemanticsRecordsVerdict) {
  Graph g = figures::fig7();
  PipelineResult res =
      Pipeline().add_pcm().validate_semantics().run(g);
  ASSERT_TRUE(res.validation.has_value());
  EXPECT_TRUE(res.validation->ok()) << res.validation->summary();
  ASSERT_FALSE(res.passes.empty());
  EXPECT_EQ("differential-validate", res.passes.back().name);
  EXPECT_NE(std::string::npos, res.to_json().find("\"validation\""));
}

TEST(Pipeline, WithoutValidateSemanticsNoVerdict) {
  Graph g = figures::fig2();
  PipelineResult res = Pipeline().add_pcm().run(g);
  EXPECT_FALSE(res.validation.has_value());
  EXPECT_EQ(std::string::npos, res.to_json().find("\"validation\""));
}

TEST(Pipeline, DefaultPipelineValidatesOnFigures) {
  for (const char* id : {"2", "4", "7", "10"}) {
    Graph g = lang::compile_or_throw(figures::figure_source(id));
    Pipeline p = default_pipeline();
    p.validate_semantics();
    PipelineResult res = p.run(g);
    ASSERT_TRUE(res.validation.has_value()) << "figure " << id;
    EXPECT_TRUE(res.validation->ok())
        << "figure " << id << ": " << res.validation->summary();
  }
}

// ----------------------------------------------- the fuzzer's trophy case

TEST(Regression, NestedParBarrierKeepsPostJoinInitialization) {
  // Found by parcm_fuzz (campaign seed 7, program 7, reduced): with a
  // barrier inside a *nested* par, every Earliest candidate for a post-join
  // term lies inside fully transparent components, and suppressing them all
  // as bottleneck-useless left the replacement reading an uninitialized
  // temporary. The barrier makes such components coverage-relevant.
  const char* kSource =
      "par {\n"
      "  par {\n"
      "    barrier;\n"
      "  } and {\n"
      "  }\n"
      "} and {\n"
      "}\n"
      "v3 := 1 + 2;\n";
  Graph g = lang::compile_or_throw(kSource);
  Graph t = verify::apply_named_pipeline("pcm", g);
  verify::Verdict v = verify::differential_check(g, t);
  EXPECT_TRUE(v.exact);
  EXPECT_TRUE(v.ok()) << v.summary();

  // Same shape with a variable term: the divergence used to be masked by
  // the all-zero initial state (h and v0 + v1 both 0), which is exactly why
  // the generator seeds operands with distinct constants.
  const char* kMasked =
      "v0 := 4;\n"
      "v1 := 5;\n"
      "par {\n"
      "  par {\n"
      "    barrier;\n"
      "  } and {\n"
      "  }\n"
      "} and {\n"
      "}\n"
      "v3 := v0 + v1;\n";
  Graph g2 = lang::compile_or_throw(kMasked);
  Graph t2 = verify::apply_named_pipeline("pcm", g2);
  verify::Verdict v2 = verify::differential_check(g2, t2);
  EXPECT_TRUE(v2.ok()) << v2.summary();
}

}  // namespace
}  // namespace parcm
