// Sequential lazy code motion (Knoop/Rüthing/Steffen, PLDI'92 — the
// paper's reference [12], the transformation whose busy counterpart PCM
// generalizes).
//
// LCM refines BCM: instead of initializing at the *earliest* down-safe
// points it delays initializations as far as possible without losing any
// reuse (latest placement) and drops insertion/replacement pairs whose
// temporary would serve only the computation right at the insertion point
// (isolation). The result is computationally identical to BCM on every
// path but with minimal temporary lifetimes — the register-pressure
// argument for laziness.
//
// LCM here is the sequential baseline/extension; the parallel
// transformation of the paper stays busy (as published), with the anchor
// sinking of code_motion.cpp providing the slice of laziness that the
// executional-improvement guarantee requires.
#pragma once

#include <string>

#include "motion/code_motion.hpp"

namespace parcm {

struct LcmInternals {
  // Per node, one bit per term (on the join-split graph).
  std::vector<BitVector> delay_in;
  std::vector<BitVector> latest;
  std::vector<BitVector> useful;  // a later consumer exists for the temp
};

// Requires g.num_par_stmts() == 0.
MotionResult lazy_code_motion(const Graph& g);

// The analyses behind LCM, for tests (computed on a copy with split joins).
LcmInternals compute_lcm_internals(const Graph& split_graph,
                                   const TermTable& terms,
                                   const LocalPredicates& preds,
                                   const MotionPredicates& mp);

// Temporary lifetimes, the register-pressure measure behind laziness: the
// number of (node, temporary) pairs with the temporary live on entry to the
// node, over the variables whose names start with `prefix` (the "h_"
// convention of the motion passes). One compute_parallel_liveness solve
// (motion/dce.hpp) with nothing observed at e*; on a parallel graph it also
// counts the liveness that interference adds.
std::size_t total_temp_lifetime(const Graph& g,
                                const std::string& prefix = "h_");

}  // namespace parcm
