// Executors for the parallel-flow-graph bytecode.
//
// Two modes over one instruction set, both on one OS thread:
//
//  * run_seeded — the oracle's mode. Every instruction boundary is a
//    schedule point: a pinned xoshiro stream picks uniformly among the
//    runnable tasks, so one (program, seed) pair names exactly one maximal
//    interleaving, reproducible on any platform. Right-hand sides evaluate
//    in a single step (the Remark 2.1 granularity), so with a split
//    lowering the set of reachable final stores over all seeds is the
//    enumerator's behaviour set — which is what makes seeded VM runs a
//    sound sampling oracle (verify::vm_differential_check).
//
//  * run_with_oracle — the cost model's mode. Branches and nondeterministic
//    choices follow a BranchOracle keyed on (originating node, visit index)
//    exactly like semantics/cost.hpp's CostWalker, and the executor
//    accumulates the paper's bottleneck time with the same phase algebra
//    (sum along a thread, per-barrier-phase maximum across components).
//    For any oracle that is a pure function of (node, visit, choices) the
//    resulting time/computations equal execution_time() — the
//    executional-improvement regression test holds the two implementations
//    against each other.
//
// Join and barrier protocol (both modes): a spawner parks with its pc
// pre-set to the statement's ParEnd; the last component to halt re-enqueues
// it. A task arriving at a barrier parks with its pc pre-set past the
// barrier; the statement releases all waiters when every *live* component
// waits. A component that halts decrements the live count and re-checks the
// release condition — this is what keeps a barrier paired with a
// zero-statement sibling component from deadlocking (the empty component
// halts immediately and is excused from the collective, matching
// barrier_release_transitions in the interpreter).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "semantics/cost.hpp"
#include "vm/bytecode.hpp"

namespace parcm::vm {

struct ExecLimits {
  // Instruction budget for one execution; nondeterministic loops may spin,
  // the budget turns them into ok=false instead of a hang.
  std::size_t max_steps = 1u << 20;
  // Schedule-perturbation knob for the seeded mode: 0 picks uniformly
  // among the runnable tasks at every step; negative prefers the
  // lowest-indexed ready slot and positive the highest (7 of 8 picks,
  // the rest stay uniform). Biased streams drive runs toward the corner
  // interleavings — components running (almost) to completion in or
  // against spawn order — that a uniform sampler reaches only with
  // vanishing probability; verify::vm_differential_check stratifies its
  // schedule budget across all three.
  int schedule_bias = 0;
};

struct ExecResult {
  bool ok = false;          // terminated within the step budget
  bool deadlocked = false;  // no runnable task before termination (defensive:
                            // a validated graph never triggers this)
  std::vector<std::int64_t> store;  // final shared store, indexed by VarId
  std::uint64_t instrs = 0;         // instructions executed
  // Cost mode only (run_with_oracle): the paper's measures.
  std::uint64_t time = 0;          // bottleneck execution time
  std::uint64_t computations = 0;  // total operator evaluations
};

// One seeded maximal execution; a pure function of (p, seed, limits).
ExecResult run_seeded(const VmProgram& p, std::uint64_t seed,
                      const ExecLimits& limits = {});

// Amortized form of run_seeded for samplers that execute one program under
// many seeds (verify::vm_differential_check runs hundreds of schedules per
// check): one machine's task/store/ready buffers are reused across runs, so
// the per-run cost is the execution itself, not the setup. run(seed,
// limits) returns exactly what run_seeded(p, seed, limits) would.
class SeededRunner {
 public:
  explicit SeededRunner(const VmProgram& p);
  ~SeededRunner();
  SeededRunner(const SeededRunner&) = delete;
  SeededRunner& operator=(const SeededRunner&) = delete;

  ExecResult run(std::uint64_t seed, const ExecLimits& limits = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Oracle-driven execution with bottleneck-cost accounting. Deterministic
// scheduling (the schedule cannot affect the structural cost); branch
// decisions and visit counting mirror semantics/cost.hpp.
ExecResult run_with_oracle(const VmProgram& p, BranchOracle& oracle,
                           const ExecLimits& limits = {});

}  // namespace parcm::vm
