#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "figures/figures.hpp"
#include "inputs.hpp"
#include "motion/pipeline.hpp"
#include "verify/fuzz.hpp"
#include "verify/vm_oracle.hpp"
#include "vm/bytecode.hpp"

namespace e2e {

using parcm::verify::Status;
using parcm::verify::Verdict;

namespace {

// Times of a run that ran out of budget are partial, so only the
// outcome is compared there.
bool costs_agree(const parcm::vm::ExecResult& vm,
                 const parcm::CostResult& analytic) {
  if (vm.ok != analytic.ok) return false;
  return !vm.ok ||
         (vm.time == analytic.time && vm.computations == analytic.computations);
}

}  // namespace

void tally_path(const parcm::vm::ExecResult& vm_in,
                const parcm::vm::ExecResult& vm_out,
                const parcm::CostResult& analytic_in,
                const parcm::CostResult& analytic_out, PathTally* tally) {
  if (!costs_agree(vm_in, analytic_in) || !costs_agree(vm_out, analytic_out)) {
    ++tally->mismatches;
  } else if (!vm_in.ok) {
    ++tally->unfinished;
  } else if (!vm_out.ok) {
    ++tally->paths;
    ++tally->slower;
  } else {
    ++tally->paths;
    tally->time_in += vm_in.time;
    tally->time_out += vm_out.time;
    if (vm_out.time > vm_in.time) ++tally->slower;
  }
}

PathTally compare_paths(const parcm::Graph& in, const parcm::Graph& out,
                        std::uint64_t path_seed) {
  // Cost runs only follow path shape, so the atomic lowering suffices.
  parcm::vm::LowerOptions lower;
  lower.split_assignments = false;
  parcm::vm::VmProgram vm_in = parcm::vm::lower_to_bytecode(in, lower);
  parcm::vm::VmProgram vm_out = parcm::vm::lower_to_bytecode(out, lower);
  PathTally tally;
  for (std::size_t s = 0; s < kPathsPerProgram; ++s) {
    std::uint64_t seed = mix(path_seed + s);
    parcm::SeededOracle oracle_in(seed);
    parcm::SeededOracle oracle_out(seed);
    parcm::vm::ExecResult r_in = parcm::vm::run_with_oracle(vm_in, oracle_in);
    parcm::vm::ExecResult r_out =
        parcm::vm::run_with_oracle(vm_out, oracle_out);
    // The analytic walk of each side on its own, so that a side that runs
    // out of budget is seen as such (paired_execution_times drops both).
    parcm::SeededOracle walk_in(seed);
    parcm::SeededOracle walk_out(seed);
    tally_path(r_in, r_out, parcm::execution_time(in, walk_in),
               parcm::execution_time(out, walk_out), &tally);
  }
  return tally;
}

std::string path_problem(const PathTally& t) {
  if (t.mismatches > 0) {
    return std::to_string(t.mismatches) +
           " paths where the VM and analytic costs disagree";
  }
  if (t.slower > 0) {
    return "slower than its input on " + std::to_string(t.slower) + " of " +
           std::to_string(t.paths) + " seeded paths";
  }
  return "";
}

std::vector<std::size_t> differing_outputs(
    const std::vector<std::string>& got, const std::vector<std::string>& want) {
  if (got.size() != want.size()) {
    throw std::logic_error("output lists of different lengths");
  }
  std::vector<std::size_t> diff;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) diff.push_back(i);
  }
  return diff;
}

std::string verdict_problem(const Verdict& exact, const Verdict& vm) {
  if (exact.status == Status::kDiverged && vm.ok()) {
    return "oracles contradict: exact diverged, vm " +
           std::string(parcm::verify::status_name(vm.status));
  }
  if (vm.status == Status::kDiverged && exact.ok()) {
    return "oracles contradict: vm diverged, exact " +
           std::string(parcm::verify::status_name(exact.status));
  }
  if (exact.status == Status::kDiverged) return "exact oracle: " + exact.summary();
  if (vm.status == Status::kDiverged) return "vm oracle: " + vm.summary();
  return "";
}

std::vector<KnownAnswer> check_known_answers() {
  std::vector<KnownAnswer> answers;
  {
    parcm::Graph g = parcm::figures::fig7();
    parcm::Graph t = parcm::verify::apply_named_pipeline("naive", g);
    Verdict exact = parcm::verify::differential_check(g, t);
    Verdict vm = parcm::verify::vm_differential_check(g, t);
    KnownAnswer a{"fig7 naive diverges", ""};
    if (exact.status != Status::kDiverged || !exact.exact) {
      a.problem = "exact oracle: " + exact.summary();
    } else if (vm.status != Status::kDiverged) {
      a.problem = "vm oracle: " + vm.summary();
    }
    answers.push_back(a);
  }
  const std::pair<const char*, parcm::Graph (*)()> figures[] = {
      {"fig2", parcm::figures::fig2},   {"fig3c", parcm::figures::fig3c},
      {"fig4", parcm::figures::fig4},   {"fig7", parcm::figures::fig7},
      {"fig10", parcm::figures::fig10},
  };
  for (const auto& [name, make] : figures) {
    parcm::Graph g = make();
    parcm::Graph t = parcm::default_pipeline().run(g).graph;
    Verdict exact = parcm::verify::differential_check(g, t);
    Verdict vm = parcm::verify::vm_differential_check(g, t);
    KnownAnswer a{std::string(name) + " full admissible", ""};
    if (!exact.ok() || !exact.exact) {
      a.problem = "exact oracle: " + exact.summary();
    } else {
      a.problem = verdict_problem(exact, vm);
    }
    answers.push_back(a);
  }
  return answers;
}

std::optional<double> tail_percentile(std::size_t n) {
  if (n < 40) return std::nullopt;
  constexpr double kLadder[] = {99.9, 99.5, 99, 95, 90, 75, 50};
  for (double q : kLadder) {
    // Nearest rank r = ceil(q n / 100); n - r samples lie above it.
    auto rank = static_cast<std::size_t>(std::ceil(q * n / 100.0));
    if (n - rank >= 10) return q;
  }
  return std::nullopt;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::logic_error("percentile of no samples");
  auto rank = static_cast<std::size_t>(std::ceil(q * samples.size() / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double ratio(double value, double base) {
  if (!(base > 0)) throw std::logic_error("ratio over a non-positive base");
  return value / base;
}

}  // namespace e2e
