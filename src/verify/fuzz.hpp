// Differential fuzzing campaign: generate random parallel programs, push
// them through a named transformation pipeline, and hold every result
// against the translation-validation oracle and the executional-improvement
// guarantee (no seeded path may run slower after the transformation).
// Confirmed divergences are delta-debugged to a minimal reproducer and
// rendered as a `.parcm` source file plus a ready-to-paste regression test.
//
// Reproducibility contract: the whole campaign is a pure function of
// FuzzOptions. `fuzz_program(seed, i, gen)` is the i-th program of campaign
// `seed` — the same bytes in any process on any platform — and the oracle's
// sampling streams are fixed, so verdicts replay too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.hpp"
#include "lang/ast.hpp"
#include "verify/verify.hpp"
#include "verify/vm_oracle.hpp"
#include "workload/randomprog.hpp"

namespace parcm::verify {

// Miscompile injection for testing the oracle itself: flip one of the
// safety ingredients the paper's transformation needs (each is a ctest'd
// ablation known to break sequential consistency on concrete figures).
struct InjectOptions {
  bool enabled = false;
  // "naive"            — the refuted as-early-as-possible transfer
  // "no-privatize"     — share temporaries across sibling components
  // "no-parend-export" — drop the Fig. 7 ParEnd export rule
  // "no-sink"          — keep anchors at their unsunk positions
  std::string mode = "naive";
};

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t count = 100;
  // Worker threads for the per-program check phase (driver::run_batch).
  // Reduction and reporting stay sequential in index order, so the outcome
  // is identical at any jobs value; 0 = hardware concurrency.
  std::size_t jobs = 1;
  // bcm | lcm | pcm | naive | sinking | dce | full
  // (bcm/lcm force sequential generation; full = pcm+constprop+sinking+dce)
  std::string pipeline = "pcm";
  // Wall-clock box in seconds; 0 = unbounded (the --smoke CI job sets 60).
  double seconds = 0;
  InjectOptions inject;
  // Which differential oracle checks each program:
  //   exact — enumerative/sampled differential_check (the default)
  //   vm    — seeded-schedule vm_differential_check
  //   both  — run both and count cross-oracle disagreements (a VM-claimed
  //           divergence the exact oracle refutes is a VM oracle bug; an
  //           exact find the VM's schedules missed is tracked as vm_missed
  //           without failing the campaign)
  std::string oracle = "exact";
  Budget budget;
  VmBudget vm_budget;
  RandomProgramOptions gen;  // defaulted via default_fuzz_gen()
  bool reduce = true;
  // Stop reducing/recording after this many failures (counting continues).
  std::size_t max_failures = 4;
  // When non-empty, write repro_<seed>_<index>.parcm and a sibling
  // .regression.cpp into this directory.
  std::string out_dir;
  // When non-empty, every recorded divergence also dumps a self-contained
  // `parcm-forensic-v1` bundle (source, config, seeds, recorder snapshot)
  // into this directory; replay with `parcm_opt --replay <bundle>`.
  std::string forensics_dir;

  FuzzOptions();
};

// Generator tuning for the oracle's exact budget: small programs, shallow
// nesting, bounded loops, and the P2/P3 pitfall shapes switched on.
RandomProgramOptions default_fuzz_gen();

struct FuzzFailure {
  std::size_t index = 0;
  std::uint64_t program_seed = 0;
  Verdict verdict;
  std::string source;          // the generated program
  std::string reduced_source;  // after delta debugging
  std::size_t reduced_stmts = 0;
  std::size_t reduced_nodes = 0;  // node count of the lowered reproducer
  std::string repro_path;         // written file, when out_dir was set
};

struct FuzzOutcome {
  std::size_t programs = 0;
  std::size_t exact = 0;
  std::size_t sampled = 0;
  std::size_t inconclusive = 0;
  // All divergences (a sampled kDiverged is sound: the oracle only emits it
  // against a complete original behaviour set). sampled_alarms is the subset
  // that resisted the exact two-sided re-check, so it lacks exact counts.
  std::size_t divergences = 0;
  std::size_t sampled_alarms = 0;
  // VM-oracle bookkeeping (zero unless oracle was "vm" or "both").
  std::size_t vm_checked = 0;
  std::size_t vm_divergences = 0;
  // Cross-oracle contradictions: the VM claimed a divergence the exact
  // oracle (or the exact escalation) refuted. Soundness bugs — fatal.
  std::size_t oracle_disagreements = 0;
  // Exact divergences the VM's schedule sample failed to reach. A sampling
  // shortfall, not a soundness bug: reported, never fatal.
  std::size_t vm_missed = 0;
  // Programs whose output runs slower than their input on some of 16
  // seeded paths (paired_execution_times with path seeds s * 7919 + 1),
  // and the first max_failures of their indices.
  std::size_t slower = 0;
  std::vector<std::size_t> slower_indices;
  std::vector<FuzzFailure> failures;

  bool ok() const {
    return divergences == 0 && oracle_disagreements == 0 && slower == 0;
  }
  std::string summary() const;
  std::string to_json(bool pretty = false) const;
};

// The deterministic program stream.
std::uint64_t fuzz_program_seed(std::uint64_t campaign_seed,
                                std::size_t index);
lang::Program fuzz_program(std::uint64_t campaign_seed, std::size_t index,
                           const RandomProgramOptions& gen);

// The i-th program of a K-shape pool: structurally the (i mod K)-th
// campaign program with every variable uniformly renamed per repetition
// (i div K), so a large corpus repeats shapes without repeating texts.
// Renaming is injective and preserves first-occurrence order, so all
// repetitions of a pool slot share one structural_hash — the workload the
// shared analysis cache exists for. shapes == 0 behaves like 1.
lang::Program fuzz_program_pooled(std::uint64_t campaign_seed,
                                  std::size_t index, std::size_t shapes,
                                  const RandomProgramOptions& gen);

// Applies the named transformation pipeline (optionally with an injected
// miscompile) to a copy of g. Throws InternalError on unknown names, or
// when injection is requested for a pipeline without a code-motion stage.
Graph apply_named_pipeline(const std::string& name, const Graph& g,
                           const InjectOptions& inject = {});

FuzzOutcome run_fuzz(const FuzzOptions& options);

// Reproducer rendering (also used by run_fuzz when out_dir is set).
std::string render_repro_source(const FuzzFailure& f, const FuzzOptions& o);
std::string render_regression_test(const FuzzFailure& f, const FuzzOptions& o);

}  // namespace parcm::verify
