// Each output check of the end-to-end benchmark, shown to fire on a known
// bad case, plus the statistics rules the metrics rest on.
#include <gtest/gtest.h>

#include <cmath>

#include "checks.hpp"
#include "figures/figures.hpp"
#include "ir/transform_utils.hpp"
#include "lang/lower.hpp"
#include "verify/fuzz.hpp"
#include "verify/vm_oracle.hpp"

namespace e2e {
namespace {

using parcm::verify::Status;

TEST(VerdictCheck, NaiveTransferOnFig7DivergesInBothOracles) {
  parcm::Graph g = parcm::figures::fig7();
  parcm::Graph t = parcm::verify::apply_named_pipeline("naive", g);
  parcm::verify::Verdict exact = parcm::verify::differential_check(g, t);
  parcm::verify::Verdict vm = parcm::verify::vm_differential_check(g, t);
  EXPECT_EQ(exact.status, Status::kDiverged);
  EXPECT_TRUE(exact.exact);
  EXPECT_EQ(exact.transformed_behaviours, 17u);
  EXPECT_EQ(exact.original_behaviours, 7u);
  EXPECT_EQ(vm.status, Status::kDiverged);
  EXPECT_NE(verdict_problem(exact, vm), "");
}

TEST(VerdictCheck, ContradictionIsReported) {
  parcm::verify::Verdict diverged;
  diverged.status = Status::kDiverged;
  parcm::verify::Verdict equivalent;
  equivalent.status = Status::kEquivalent;
  equivalent.exact = true;
  EXPECT_NE(verdict_problem(equivalent, diverged).find("contradict"),
            std::string::npos);
  EXPECT_NE(verdict_problem(diverged, equivalent).find("contradict"),
            std::string::npos);
  EXPECT_EQ(verdict_problem(equivalent, equivalent), "");
}

TEST(KnownAnswers, HoldOnTheLibrary) {
  for (const KnownAnswer& a : check_known_answers()) {
    EXPECT_EQ(a.problem, "") << a.name;
  }
}

TEST(SeededPaths, ExtraComputationInLoopBodyIsSlower) {
  parcm::Graph in = parcm::lang::compile_or_throw("while (*) { x := a + b; }");
  parcm::Graph out = in;
  parcm::NodeId body = parcm::node_of_statement(out, "x := a + b");
  parcm::Node copy = out.node(body);
  parcm::NodeId extra =
      out.new_assign(copy.region, out.intern_var("y"), copy.rhs);
  parcm::wire_on_edge(out, copy.out_edges[0], extra);

  PathTally t = compare_paths(in, out, 7);
  EXPECT_EQ(t.paths, kPathsPerProgram);
  EXPECT_GT(t.slower, 0u);
  EXPECT_GT(t.time_out, t.time_in);
  EXPECT_EQ(t.mismatches, 0u);
  EXPECT_EQ(t.unfinished, 0u);
  EXPECT_EQ(compare_paths(in, in, 7).slower, 0u);
}

parcm::vm::ExecResult vm_run(bool ok, std::uint64_t time) {
  parcm::vm::ExecResult r;
  r.ok = ok;
  r.time = time;
  r.computations = time;
  return r;
}

TEST(SeededPaths, AnySlowerPathFailsTheProgram) {
  PathTally t;
  t.paths = kPathsPerProgram;
  EXPECT_EQ(path_problem(t), "");
  t.slower = 1;
  EXPECT_NE(path_problem(t).find("slower"), std::string::npos);
  t.mismatches = 1;
  EXPECT_NE(path_problem(t).find("disagree"), std::string::npos);
}

TEST(CostModels, DisagreementIsCounted) {
  parcm::vm::ExecResult vm_in = vm_run(true, 5), vm_out = vm_run(true, 3);
  parcm::CostResult an_in{true, 5, 5};
  parcm::CostResult an_out{true, 3, 3};
  parcm::CostResult an_out_wrong{true, 4, 3};  // the walk says 4, the VM 3
  PathTally t;
  tally_path(vm_in, vm_out, an_in, an_out, &t);
  EXPECT_EQ(t.mismatches, 0u);
  EXPECT_EQ(t.paths, 1u);
  tally_path(vm_in, vm_out, an_in, an_out_wrong, &t);
  EXPECT_EQ(t.mismatches, 1u);
  EXPECT_EQ(t.paths, 1u);  // a disagreeing path is not compared
  EXPECT_EQ(t.slower, 0u);
}

TEST(CostModels, OnlyOneModelFinishingIsADisagreement) {
  parcm::CostResult an_out_unfinished{false, 2, 2};
  PathTally t;
  tally_path(vm_run(true, 5), vm_run(true, 3), {true, 5, 5},
             an_out_unfinished, &t);
  EXPECT_EQ(t.mismatches, 1u);
  EXPECT_EQ(t.paths, 0u);
}

TEST(SeededPaths, OptimizedAloneOutOfBudgetIsSlower) {
  PathTally t;
  // Both models: the input finishes at 5, the optimized program does not.
  tally_path(vm_run(true, 5), vm_run(false, 2), {true, 5, 5}, {false, 2, 2},
             &t);
  EXPECT_EQ(t.slower, 1u);
  EXPECT_EQ(t.paths, 1u);
  EXPECT_EQ(t.mismatches, 0u);
  EXPECT_EQ(t.time_in, 0u);  // an unfinished run has no time to add
  // The input out of budget: nothing to compare, but not hidden.
  tally_path(vm_run(false, 9), vm_run(true, 3), {false, 9, 9}, {true, 3, 3},
             &t);
  EXPECT_EQ(t.unfinished, 1u);
  EXPECT_EQ(t.paths, 1u);
  EXPECT_EQ(t.slower, 1u);
}

TEST(OutputIdentity, OneByteChangeIsFound) {
  std::vector<std::string> want = {"x := a + b\n", "y := h_0\n"};
  std::vector<std::string> got = want;
  EXPECT_TRUE(differing_outputs(got, want).empty());
  got[1][6] = '1';
  EXPECT_EQ(differing_outputs(got, want), std::vector<std::size_t>{1});
}

TEST(TailPercentile, NoTailBelowFortySamples) {
  EXPECT_FALSE(tail_percentile(0).has_value());
  EXPECT_FALSE(tail_percentile(39).has_value());
  EXPECT_EQ(tail_percentile(40), 75.0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  const double ladder[] = {50, 75, 90, 95, 99, 99.5, 99.9};
  auto beyond = [](std::size_t n, double q) {
    return n - static_cast<std::size_t>(std::ceil(q * n / 100.0));
  };
  for (std::size_t n = 40; n <= 20000; n += 7) {
    std::optional<double> q = tail_percentile(n);
    ASSERT_TRUE(q.has_value()) << n;
    EXPECT_GE(beyond(n, *q), 10u) << n;
    for (double higher : ladder) {
      if (higher <= *q) continue;
      EXPECT_LT(beyond(n, higher), 10u) << n << " " << higher;
    }
  }
  EXPECT_EQ(tail_percentile(202), 95.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> forty;
  for (int i = 1; i <= 40; ++i) forty.push_back(41 - i);
  EXPECT_EQ(percentile(forty, 50), 20);
  EXPECT_EQ(percentile(forty, 75), 30);  // ten samples, 31..40, beyond it
  EXPECT_THROW(percentile({}, 50), std::logic_error);
}

TEST(Ratios, BaseIsTheInput) {
  // PCM computes a + b once for both uses: the optimized program does half
  // the input's work, so the ratio over the input is 1/2 (over the output
  // it would be 2).
  parcm::Graph in = parcm::lang::compile_or_throw("x := a + b; y := a + b;");
  parcm::Graph out = parcm::verify::apply_named_pipeline("pcm", in);
  PathTally t = compare_paths(in, out, 1);
  ASSERT_EQ(t.paths, kPathsPerProgram);
  EXPECT_DOUBLE_EQ(ratio(static_cast<double>(t.time_out),
                         static_cast<double>(t.time_in)),
                   0.5);
  EXPECT_DOUBLE_EQ(ratio(static_cast<double>(out.num_nodes()),
                         static_cast<double>(in.num_nodes())),
                   static_cast<double>(out.num_nodes()) / in.num_nodes());
  EXPECT_THROW(ratio(1, 0), std::logic_error);
}

}  // namespace
}  // namespace e2e
