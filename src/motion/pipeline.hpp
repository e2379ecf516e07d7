// Pass pipeline: chain the library's transformations with per-pass
// statistics and optional end-to-end verification.
//
// The default pipeline is the classical redundancy-removal stack enabled by
// the paper's framework: parallel code motion (partial redundancy
// elimination), constant propagation, dead assignment elimination.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/graph.hpp"
#include "obs/metrics.hpp"
#include "verify/verify.hpp"

namespace parcm {

struct PassStats {
  std::string name;
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  // Pass-specific headline number (insertions, folds, eliminations, ...).
  std::size_t actions = 0;
  // Wall-clock time of the pass.
  double wall_ms = 0.0;
  // Delta of every obs::Registry counter the pass moved (solver
  // relaxations, motion counts, ...), sorted by name. Empty when the
  // library is built with PARCM_OBS=OFF.
  obs::CounterDeltas counters;
  // Optimization remarks the pass emitted into the global obs::remarks()
  // sink (zero when the sink is disabled or PARCM_OBS=OFF).
  std::size_t remarks = 0;

  // The pass's delta of counter `name`; 0 when the pass did not move it.
  std::uint64_t counter(std::string_view name) const;
};

struct PipelineResult {
  Graph graph;
  std::vector<PassStats> passes;
  // Differential translation-validation verdict comparing the pipeline's
  // input against its final output; present when validate_semantics was
  // requested. A structural add_validate failure throws; a semantic
  // divergence is *recorded* here so callers (parcm_opt --validate, the
  // fuzzer) decide how loudly to fail.
  std::optional<verify::Verdict> validation;

  std::string to_string() const;
  // Machine-readable form: {"passes":[{name, nodes_before, nodes_after,
  // node_delta, actions, wall_ms, counters}, ...], "validation"?: {status,
  // exact, witness}}. Stable key order.
  std::string to_json(bool pretty = false) const;
};

class Pipeline {
 public:
  // A pass transforms the graph in place and stores its headline number
  // in *actions.
  using PassFn = std::function<void(Graph&, std::size_t* actions)>;

  Pipeline& add(std::string name, PassFn pass);

  // Built-in passes.
  Pipeline& add_pcm();        // parallel busy code motion (the paper)
  Pipeline& add_constprop();  // interference-aware constant propagation
  Pipeline& add_dce(std::vector<std::string> observed = {});
  Pipeline& add_sinking();    // partial dead-code elimination (sinking)
  Pipeline& add_validate();   // structural check between passes

  // Opt-in translation-validation post-pass: after the last pass, compare
  // the observable behaviours of the pipeline's input and output with the
  // differential oracle and record the verdict in PipelineResult.
  Pipeline& validate_semantics(verify::Budget budget = {});

  // Called with the pass name immediately before each pass (including the
  // differential-validate post-pass). The batch driver installs a deadline
  // check here, so a per-program timeout fires between passes and unwinds
  // as an exception instead of abandoning a half-transformed graph.
  Pipeline& on_pass_start(std::function<void(const std::string&)> hook);

  // Runs every pass in order on a copy of g.
  PipelineResult run(const Graph& g) const;

  std::size_t size() const { return passes_.size(); }

 private:
  struct Pass {
    std::string name;
    // "pipeline.pass_wall_ns.<name>", built once in add().
    std::string wall_hist;
    PassFn fn;
  };
  std::vector<Pass> passes_;
  std::optional<verify::Budget> semantic_budget_;
  std::function<void(const std::string&)> pass_start_hook_;
};

// PCM -> constant propagation -> DCE (with every variable observable),
// validating between passes.
Pipeline default_pipeline();

}  // namespace parcm
