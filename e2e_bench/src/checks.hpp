// Output checks and statistics of the end-to-end benchmark.
//
// Every check rests on a property the method must have or on a known
// answer from the paper, never on a stored copy of today's output:
//   - seeded paths: on the same seeded branch paths, an optimized program
//     is never slower than its input (the paper's executional-improvement
//     guarantee under the bottleneck cost model of Sec. 3.3.1);
//   - cost models: the VM's cost run and the analytic walk agree per path;
//   - determinism: batch outputs equal a single-thread Pipeline::run;
//   - verdicts: no oracle reports a divergence and the two never contradict;
//   - known answers: the paper's figures under naive and full code motion.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/graph.hpp"
#include "semantics/cost.hpp"
#include "verify/verify.hpp"
#include "vm/executor.hpp"

namespace e2e {

inline constexpr std::size_t kPathsPerProgram = 8;

// Bottleneck execution time of an (input, optimized) pair over the pair's
// seeded branch paths. Every path lands in exactly one of `paths`,
// `mismatches` and `unfinished`; `slower` counts some of `paths`.
struct PathTally {
  std::uint64_t time_in = 0;   // summed over paths both sides finished
  std::uint64_t time_out = 0;  // summed over paths both sides finished
  std::size_t paths = 0;       // compared: the input finished in the budget
  std::size_t slower = 0;      // optimized slower, or out of budget alone
  std::size_t mismatches = 0;  // VM and analytic cost disagree on a side
  std::size_t unfinished = 0;  // the input ran out of budget: not compared
};

// Adds one path, measured by both cost models on both sides, to `tally`.
// A side where the VM's oracle-driven run and the analytic walk of
// semantics/cost.hpp disagree on time, computations, or on whether the run
// finished within its step budget is a mismatch. When both models agree, a
// path on which only the optimized program runs out of budget is slower.
void tally_path(const parcm::vm::ExecResult& vm_in,
                const parcm::vm::ExecResult& vm_out,
                const parcm::CostResult& analytic_in,
                const parcm::CostResult& analytic_out, PathTally* tally);

// Runs kPathsPerProgram seeded branch paths through both programs on the
// VM and through the analytic model. Path s uses the branch oracle seeded
// with mix(path_seed + s).
PathTally compare_paths(const parcm::Graph& in, const parcm::Graph& out,
                        std::uint64_t path_seed);

// Why a program fails the seeded-path or the cost-model check, or empty:
// any slower path fails it, whatever program it is.
std::string path_problem(const PathTally& t);

// Positions at which `got` differs from `want`, byte for byte.
std::vector<std::size_t> differing_outputs(const std::vector<std::string>& got,
                                           const std::vector<std::string>& want);

// Empty when neither oracle diverged and the two do not contradict each
// other; otherwise what is wrong.
std::string verdict_problem(const parcm::verify::Verdict& exact,
                            const parcm::verify::Verdict& vm);

// Known answers from the paper: Fig. 7 under the naive transfer diverges
// in both oracles; Figs. 2, 3c, 4, 7 and 10 under `full` are admissible and
// decided exactly by the exact oracle, and the VM oracle agrees.
struct KnownAnswer {
  std::string name;
  std::string problem;  // empty when the answer holds
};
std::vector<KnownAnswer> check_known_answers();

// The highest percentile of {50, 75, 90, 95, 99, 99.5, 99.9} with at least
// ten of n samples above its rank; nullopt below 40 samples, where a tail
// would be no tail.
std::optional<double> tail_percentile(std::size_t n);

// Nearest-rank percentile (q in (0, 100]) of a non-empty sample.
double percentile(std::vector<double> samples, double q);

// `value` as a share of `base`: exec_time_ratio is optimized time over
// input time, code_size_ratio nodes after over nodes before. base > 0.
double ratio(double value, double base);

}  // namespace e2e
