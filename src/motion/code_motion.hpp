// The generic busy-code-motion transformation machinery shared by BCM
// (sequential), the naive parallel transfer, and PCM (the paper's
// algorithm). The pipeline (paper Sec. 3):
//
//   1. split join edges (synthetic nodes; ParEnd targets exempt),
//   2. compute up-/down-safety in the selected variant,
//   3. insert `h_t := t` at every Earliest point,
//   4. replace every original computation at a Safe point by `h_t`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analyses/earliest.hpp"
#include "ir/graph.hpp"
#include "ir/terms.hpp"
#include "motion/mustuse.hpp"

namespace parcm {

struct CodeMotionConfig {
  // kRefined: the paper's PCM (up-safe_par / down-safe_par, implicit
  // recursive-assignment split). kNaive: the refuted straightforward
  // transfer of the sequential as-early-as-possible strategy.
  SafetyVariant variant = SafetyVariant::kRefined;

  // Ablation switches for the three additions this implementation needs on
  // top of the paper's literal formulas (each OFF reproduces a concrete
  // failure; see tests/test_ablation.cpp and DESIGN.md Sec. 4):
  //
  // Anchor sinking: without it, interference-restarted down-safe regions
  // make some paths initialize the temporary twice (executional
  // regression).
  bool sink_anchors = true;
  // Component-private temporaries: without them, sibling components race on
  // the shared temporary whenever an operand modifier is present
  // (sequential-consistency violation on Fig. 4).
  bool privatize_temps = true;
  // ParEnd export rule (Fig. 7): without it, a down-safety chain crossing
  // the join suppresses the post-join initialization although no component
  // exports the value (sequential-consistency violation on Fig. 6).
  bool parend_export_rule = true;
};

struct TermMotion {
  TermId term;
  Term term_value;
  VarId temp;
  std::vector<NodeId> insert_points;  // anchors (ids in the result graph)
  std::vector<NodeId> insert_nodes;   // created `h := t` assignments
  std::vector<NodeId> replaced;       // originals rewritten to `x := h`
  // Privatization (refined variant only): inside a parallel statement that
  // modifies an operand of the term, sibling components must not race on
  // the shared temporary — each component gets a private temp, wired up by
  // zero-cost trivial copies at the component entry (h_C := h) and, when
  // the statement's exit is up-safe_par via its (unique) operand-modifying
  // component, after the ParEnd (h := h_C).
  std::vector<std::pair<RegionId, VarId>> private_temps;
  std::vector<NodeId> bridge_nodes;
};

struct MotionResult {
  Graph graph;
  std::size_t synthetic_nodes = 0;  // from join-edge splitting
  std::vector<TermMotion> terms;
  // The analyses behind the decisions (on the split graph), for reports.
  SafetyInfo safety;
  MotionPredicates predicates;

  std::size_t num_insertions() const;
  std::size_t num_replacements() const;
};

// Applies busy code motion to a copy of g. Node ids of g remain valid in
// the result graph (new nodes are only appended).
MotionResult run_code_motion(const Graph& g, const CodeMotionConfig& config);

// Watches anchor sinking: called once per Earliest candidate whose MUSTUSE
// was solved, after the candidate sank, with the problem (term and
// blocking set) and the cone it was solved on (motion/mustuse.hpp). Tests
// compare the cone with a whole-graph solve; the placement is unchanged.
using PlacementObserver = std::function<void(
    const MustUseProblem& problem, NodeId anchor, const MustUseCone& cone)>;
MotionResult run_code_motion(const Graph& g, const CodeMotionConfig& config,
                             const PlacementObserver& observer);

// Fresh temporary name for a term: "h_<lhs>_<op>_<rhs>", uniqued against the
// graph's symbol table.
std::string fresh_temp_name(const Graph& g, const Term& t);

}  // namespace parcm
