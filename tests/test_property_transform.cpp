// Property suite for the transformation guarantees (paper Sec. 3.3.4):
// on random parallel programs, PCM (a) preserves sequential consistency
// under the paper's split-assignment semantics (Remark 2.1), (b) never
// worsens the execution time of any path, and (c) never worsens the
// computation count. BCM gets the same treatment on sequential programs
// with full behavioural equality.
#include <gtest/gtest.h>

#include <algorithm>

#include "analyses/earliest.hpp"
#include "analyses/predicates.hpp"
#include "ir/terms.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "motion/bcm.hpp"
#include "motion/pcm.hpp"
#include "semantics/cost.hpp"
#include "semantics/equivalence.hpp"
#include "verify/fuzz.hpp"
#include "verify/verify.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

RandomProgramOptions parallel_options() {
  RandomProgramOptions opt;
  opt.target_stmts = 9;
  opt.max_par_depth = 2;
  opt.max_components = 3;
  opt.num_vars = 3;
  opt.while_permille = 30;  // bounded enumeration
  return opt;
}

class PcmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcmProperty, PreservesSequentialConsistencySplitSemantics) {
  Rng rng(GetParam());
  Graph g = random_program(rng, parallel_options());
  MotionResult r = parallel_code_motion(g);
  validate_or_throw(r.graph);
  EnumerationOptions opts;
  opts.atomic_assignments = false;
  opts.max_states = 1u << 19;
  auto verdict = check_sequential_consistency(g, r.graph, {}, opts);
  if (!verdict.exhausted) GTEST_SKIP() << "state space too large";
  EXPECT_TRUE(verdict.sequentially_consistent)
      << "seed " << GetParam() << " witness exists";
  EXPECT_TRUE(verdict.behaviours_preserved) << "seed " << GetParam();
}

TEST_P(PcmProperty, NeverExecutionallyWorse) {
  Rng rng(GetParam() + 5000);
  RandomProgramOptions opt = parallel_options();
  opt.target_stmts = 14;
  Graph g = random_program(rng, opt);
  MotionResult r = parallel_code_motion(g);
  validate_or_throw(r.graph);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto pair = paired_execution_times(g, r.graph, seed * 77 + 1);
    if (!pair.has_value()) continue;  // unlucky divergent schedule
    EXPECT_LE(pair->second.time, pair->first.time)
        << "program seed " << GetParam() << " path seed " << seed;
    EXPECT_LE(pair->second.computations, pair->first.computations)
        << "program seed " << GetParam() << " path seed " << seed;
  }
}

TEST_P(PcmProperty, TransformedGraphAlwaysValid) {
  Rng rng(GetParam() + 9000);
  RandomProgramOptions opt = parallel_options();
  opt.target_stmts = 20;
  opt.max_par_depth = 3;
  Graph g = random_program(rng, opt);
  MotionResult refined = parallel_code_motion(g);
  validate_or_throw(refined.graph);
  MotionResult naive = naive_parallel_code_motion(g);
  validate_or_throw(naive.graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcmProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

// The executional-improvement guarantee over whole fuzz campaigns: the 2400
// programs fuzz_program(c, i) of six campaigns, 16 seeded paths each, under
// PCM alone and under the default pipeline. It guards the ParBegin cases of
// anchor sinking (a frontier with no consumer behind it, a transparent
// statement inside a loop, an anchor on a transparent statement's
// ParBegin), each rare enough that NeverExecutionallyWorse's 40 programs
// expect less than one hit.
TEST(PcmProperty, NoSlowerPathOnFuzzCampaigns) {
  const RandomProgramOptions gen = verify::default_fuzz_gen();
  for (const char* pipeline : {"pcm", "full"}) {
    std::size_t programs = 0, paths = 0, slower = 0;
    std::string first_slower;
    for (std::uint64_t campaign : {1u, 3u, 7u, 42u, 47705u, 59547u}) {
      for (std::size_t i = 0; i < 400; ++i) {
        Graph g = lang::lower(verify::fuzz_program(campaign, i, gen));
        Graph t = verify::apply_named_pipeline(pipeline, g);
        bool slow = false;
        for (std::uint64_t s = 0; s < 16; ++s) {
          auto pair = paired_execution_times(g, t, s * 7919 + 1);
          if (!pair.has_value()) continue;
          ++paths;
          slow = slow || pair->second.time > pair->first.time;
        }
        ++programs;
        if (slow && slower++ == 0) {
          first_slower = std::to_string(campaign) + "/" + std::to_string(i);
        }
      }
    }
    EXPECT_EQ(programs, 2400u) << pipeline;
    EXPECT_GT(paths, 2400u * 15) << pipeline;
    EXPECT_EQ(slower, 0u) << pipeline << ": fuzz_program " << first_slower
                          << " is slower on some path";
  }
}

// P2 (paper Sec. 3.3.2, Fig. 3): recursive assignments x := t with
// x ∈ operands(t). Inside a parallel statement the conceptual split
// x_t := t; x := x_t must never be materialized with other statements
// between initialization and replacement — the refined analyses guarantee
// that by refusing to replace such occurrences at all.
class PcmRecursiveProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static RandomProgramOptions recursive_heavy() {
    RandomProgramOptions opt = verify::default_fuzz_gen();
    opt.recursive_permille = 500;
    opt.p2_shape_permille = 250;
    opt.p3_shape_permille = 100;
    return opt;
  }
};

TEST_P(PcmRecursiveProperty, RecursiveOccurrencesInsideParOnlyReplacedIfUpSafe) {
  // Replacing `a := a+b` by `a := h` is only sound when h already holds the
  // value (up-safety): the occurrence itself must never justify the
  // initialization, because materializing its split `h := a+b; a := h`
  // with sibling interference in between is exactly the P2 miscompile.
  // Refined down-safety therefore treats it as a pure destroyer.
  Rng rng(GetParam());
  Graph g = lang::lower(random_program_ast(rng, recursive_heavy()));
  TermTable terms(g);
  LocalPredicates preds(g, terms);
  SafetyInfo safety = compute_safety(g, preds, SafetyVariant::kRefined);
  MotionResult r = parallel_code_motion(g);
  validate_or_throw(r.graph);
  for (const TermMotion& tm : r.terms) {
    for (NodeId n : tm.replaced) {
      if (n.index() >= g.num_nodes()) continue;  // created by the transform
      if (!preds.recursive(n) || !g.pfg(n).valid()) continue;
      EXPECT_TRUE(safety.upsafe[n.index()].test(tm.term.index()))
          << "seed " << GetParam() << ": recursive occurrence n" << n.index()
          << " inside a parallel statement was replaced without the value "
             "being available — its own down-safety materialized the split "
             "(P2)";
    }
  }
}

TEST_P(PcmRecursiveProperty, ConsistentOnRecursiveHeavyPrograms) {
  Rng rng(GetParam() + 300);
  Graph g = lang::lower(random_program_ast(rng, recursive_heavy()));
  Graph t = verify::apply_named_pipeline("pcm", g);
  verify::Budget budget;
  budget.max_states = 1u << 19;
  verify::Verdict v = verify::differential_check(g, t, budget);
  if (v.status == verify::Status::kInconclusive || !v.exact) {
    GTEST_SKIP() << "state space too large";
  }
  EXPECT_TRUE(v.ok()) << "seed " << GetParam() << ": " << v.summary();
}

TEST_P(PcmRecursiveProperty, FullPipelineConsistentOnRecursiveHeavyPrograms) {
  Rng rng(GetParam() + 700);
  Graph g = lang::lower(random_program_ast(rng, recursive_heavy()));
  Graph t = verify::apply_named_pipeline("full", g);
  verify::Verdict v = verify::differential_check(g, t);
  if (v.status == verify::Status::kInconclusive || !v.exact) {
    GTEST_SKIP() << "state space too large";
  }
  EXPECT_TRUE(v.ok()) << "seed " << GetParam() << ": " << v.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcmRecursiveProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

class BcmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BcmProperty, SequentialFullEquivalenceAndImprovement) {
  Rng rng(GetParam());
  RandomProgramOptions opt;
  opt.max_par_depth = 0;
  opt.target_stmts = 12;
  opt.num_vars = 3;
  Graph g = random_program(rng, opt);
  MotionResult r = busy_code_motion(g);
  validate_or_throw(r.graph);

  auto verdict = check_sequential_consistency(g, r.graph);
  if (!verdict.exhausted) GTEST_SKIP();
  EXPECT_TRUE(verdict.sequentially_consistent) << GetParam();
  EXPECT_TRUE(verdict.behaviours_preserved) << GetParam();

  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto pair = paired_execution_times(g, r.graph, seed * 13 + 5);
    if (!pair.has_value()) continue;
    EXPECT_LE(pair->second.time, pair->first.time) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcmProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace parcm
