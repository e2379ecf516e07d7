// parcm — Code Motion for Explicitly Parallel Programs (Knoop & Steffen,
// PPoPP 1999). Umbrella header: includes the full public API.
//
// Typical flow:
//
//   #include "parcm.hpp"
//
//   parcm::Graph g = parcm::lang::compile_or_throw(source);
//   parcm::MotionResult moved = parcm::parallel_code_motion(g);
//   std::cout << parcm::to_text(moved.graph) << parcm::motion_report(moved);
//
// Layers (each usable on its own):
//   ir/         parallel flow graphs, builder, validation, printers
//   lang/       the textual program language (lexer/parser/lowering)
//   dfa/        the hierarchical bitvector framework (PMFP_BV)
//   analyses/   up-/down-safety, earliest/replace predicates, constants
//   motion/     BCM, LCM, PCM (+ naive baseline), dead-code elimination
//   semantics/  interpreter, enumerator, cost model, product program
//   figures/    the paper's figures as executable programs
//   workload/   random programs and parameterized families
#pragma once

#include "analyses/downsafety.hpp"
#include "analyses/earliest.hpp"
#include "analyses/constprop.hpp"
#include "analyses/predicates.hpp"
#include "analyses/upsafety.hpp"
#include "dfa/framework.hpp"
#include "dfa/hier_solver.hpp"
#include "dfa/lattice.hpp"
#include "dfa/packed.hpp"
#include "dfa/seq_solver.hpp"
#include "figures/figures.hpp"
#include "ir/builder.hpp"
#include "ir/expr.hpp"
#include "ir/graph.hpp"
#include "ir/printer.hpp"
#include "ir/regions.hpp"
#include "ir/terms.hpp"
#include "ir/transform_utils.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "lang/parser.hpp"
#include "motion/bcm.hpp"
#include "motion/code_motion.hpp"
#include "motion/dce.hpp"
#include "motion/lcm.hpp"
#include "motion/pipeline.hpp"
#include "motion/pcm.hpp"
#include "motion/report.hpp"
#include "motion/sinking.hpp"
#include "semantics/cost.hpp"
#include "semantics/enumerator.hpp"
#include "semantics/equivalence.hpp"
#include "semantics/interpreter.hpp"
#include "semantics/product.hpp"
#include "semantics/state.hpp"
#include "support/bitvector.hpp"
#include "support/diagnostics.hpp"
#include "support/ids.hpp"
#include "support/rng.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"
