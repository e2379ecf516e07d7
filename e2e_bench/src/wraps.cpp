// Link-time interception of the library's layer entry points.
//
// The harness is linked with GNU ld's --wrap=<symbol> for every symbol
// named in an E2E_WRAP(...) below (CMakeLists.txt collects them from this
// file). The linker then sends every call to the symbol that crosses an
// object file, from the library and from the harness alike, to
// __wrap_<symbol>, and __real_<symbol> reaches the original. Each wrapper
// opens a span around the real call and records what its result shows, so
// the library itself stays untouched. A call made inside the object file
// that defines the callee is not intercepted: liveness computed by DCE
// (motion/dce.cpp) is therefore part of motion.dce_ms.
//
// Member functions are wrapped as free functions taking `this` first,
// which is their calling convention under the Itanium C++ ABI.
#include <string>
#include <string_view>

#include "analyses/constprop.hpp"
#include "analyses/earliest.hpp"
#include "driver/driver.hpp"
#include "ir/printer.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "motion/dce.hpp"
#include "motion/pcm.hpp"
#include "motion/pipeline.hpp"
#include "motion/sinking.hpp"
#include "spans.hpp"
#include "verify/verify.hpp"
#include "verify/vm_oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"

#define E2E_REAL(sym) __asm__("__real_" #sym)
#define E2E_WRAP(sym) __asm__("__wrap_" #sym)

namespace pd = parcm::driver;
namespace pv = parcm::verify;
namespace pvm = parcm::vm;
using Remarks = std::vector<parcm::obs::Remark>;

namespace e2e::real {
pd::BatchReport run_batch(const pd::Manifest&, const pd::BatchOptions&)
    E2E_REAL(_ZN5parcm6driver9run_batchERKNS0_8ManifestERKNS0_12BatchOptionsE);
parcm::Graph compile(std::string_view, parcm::DiagnosticSink&) E2E_REAL(
    _ZN5parcm4lang7compileESt17basic_string_viewIcSt11char_traitsIcEERNS_14DiagnosticSinkE);
parcm::PipelineResult pipeline_run(const parcm::Pipeline*, const parcm::Graph&)
    E2E_REAL(_ZNK5parcm8Pipeline3runERKNS_5GraphE);
parcm::MotionResult parallel_code_motion(const parcm::Graph&)
    E2E_REAL(_ZN5parcm20parallel_code_motionERKNS_5GraphE);
parcm::SafetyInfo compute_safety(const parcm::Graph&,
                                 const parcm::LocalPredicates&,
                                 parcm::SafetyVariant)
    E2E_REAL(_ZN5parcm14compute_safetyERKNS_5GraphERKNS_15LocalPredicatesENS_13SafetyVariantE);
parcm::ConstPropResult propagate_constants(const parcm::Graph&)
    E2E_REAL(_ZN5parcm19propagate_constantsERKNS_5GraphE);
parcm::SinkingResult sink_partially_dead_assignments(const parcm::Graph&)
    E2E_REAL(_ZN5parcm31sink_partially_dead_assignmentsERKNS_5GraphE);
parcm::ParallelLiveness compute_parallel_liveness(const parcm::Graph&,
                                                  const parcm::BitVector&)
    E2E_REAL(_ZN5parcm25compute_parallel_livenessERKNS_5GraphERKNS_9BitVectorE);
parcm::DceResult eliminate_dead_assignments(const parcm::Graph&,
                                            const parcm::DceOptions&)
    E2E_REAL(_ZN5parcm26eliminate_dead_assignmentsERKNS_5GraphERKNS_10DceOptionsE);
void validate_or_throw(const parcm::Graph&, const parcm::ValidateOptions&)
    E2E_REAL(_ZN5parcm17validate_or_throwERKNS_5GraphERKNS_15ValidateOptionsE);
std::string to_text(const parcm::Graph&)
    E2E_REAL(_ZN5parcm7to_textB5cxx11ERKNS_5GraphE);
pv::Verdict differential_check(const parcm::Graph&, const parcm::Graph&,
                               const pv::Budget&, const Remarks*)
    E2E_REAL(_ZN5parcm6verify18differential_checkERKNS_5GraphES3_RKNS0_6BudgetEPKSt6vectorINS_3obs6RemarkESaIS9_EE);
pv::Verdict vm_differential_check(const parcm::Graph&, const parcm::Graph&,
                                  const pv::VmBudget&, const Remarks*)
    E2E_REAL(_ZN5parcm6verify21vm_differential_checkERKNS_5GraphES3_RKNS0_8VmBudgetEPKSt6vectorINS_3obs6RemarkESaIS9_EE);
pvm::VmProgram lower_to_bytecode(const parcm::Graph&, const pvm::LowerOptions&)
    E2E_REAL(_ZN5parcm2vm17lower_to_bytecodeERKNS_5GraphERKNS0_12LowerOptionsE);
pvm::ExecResult seeded_runner_run(pvm::SeededRunner*, std::uint64_t,
                                  const pvm::ExecLimits&)
    E2E_REAL(_ZN5parcm2vm12SeededRunner3runEmRKNS0_10ExecLimitsE);
}  // namespace e2e::real

namespace e2e::wrapped {

namespace {
void count_verdict(const pv::Verdict& v) {
  count(Count::kInconclusive, v.status == pv::Status::kInconclusive);
  count(Count::kBehaviours, v.original_behaviours);
}
}  // namespace

pd::BatchReport run_batch(const pd::Manifest& m, const pd::BatchOptions& o)
    E2E_WRAP(_ZN5parcm6driver9run_batchERKNS0_8ManifestERKNS0_12BatchOptionsE);
pd::BatchReport run_batch(const pd::Manifest& m, const pd::BatchOptions& o) {
  Scope span(Layer::kRunBatch);
  pd::BatchReport r = real::run_batch(m, o);
  double program_wall_ms = 0;
  for (const pd::ProgramResult& p : r.programs) program_wall_ms += p.wall_ms;
  count(Count::kPrograms, r.programs.size());
  count(Count::kWorkers, r.workers);
  count(Count::kProgramWallNs, static_cast<std::uint64_t>(program_wall_ms * 1e6));
  count(Count::kSteals, r.queue.steals);
  count(Count::kAllocs, r.allocs_total);
  count(Count::kCacheLookups, r.cache_hits + r.cache_misses);
  count(Count::kCacheBuilds, r.cache_builds);
  count(Count::kRegistryNames, r.counters.size());
  return r;
}

parcm::Graph compile(std::string_view src, parcm::DiagnosticSink& sink) E2E_WRAP(
    _ZN5parcm4lang7compileESt17basic_string_viewIcSt11char_traitsIcEERNS_14DiagnosticSinkE);
parcm::Graph compile(std::string_view src, parcm::DiagnosticSink& sink) {
  Scope span(Layer::kCompile);
  return real::compile(src, sink);
}

parcm::PipelineResult pipeline_run(const parcm::Pipeline* self,
                                   const parcm::Graph& g)
    E2E_WRAP(_ZNK5parcm8Pipeline3runERKNS_5GraphE);
parcm::PipelineResult pipeline_run(const parcm::Pipeline* self,
                                   const parcm::Graph& g) {
  Scope span(Layer::kPipeline);
  parcm::PipelineResult r = real::pipeline_run(self, g);
  count(Count::kNodesIn, g.num_nodes());
  count(Count::kNodesOut, r.graph.num_nodes());
  return r;
}

parcm::MotionResult parallel_code_motion(const parcm::Graph& g)
    E2E_WRAP(_ZN5parcm20parallel_code_motionERKNS_5GraphE);
parcm::MotionResult parallel_code_motion(const parcm::Graph& g) {
  Scope span(Layer::kPcm);
  parcm::MotionResult r = real::parallel_code_motion(g);
  count(Count::kPcmActions, r.num_insertions() + r.num_replacements());
  return r;
}

parcm::SafetyInfo compute_safety(const parcm::Graph& g,
                                 const parcm::LocalPredicates& preds,
                                 parcm::SafetyVariant variant)
    E2E_WRAP(_ZN5parcm14compute_safetyERKNS_5GraphERKNS_15LocalPredicatesENS_13SafetyVariantE);
parcm::SafetyInfo compute_safety(const parcm::Graph& g,
                                 const parcm::LocalPredicates& preds,
                                 parcm::SafetyVariant variant) {
  Scope span(Layer::kSafety);
  return real::compute_safety(g, preds, variant);
}

parcm::ConstPropResult propagate_constants(const parcm::Graph& g)
    E2E_WRAP(_ZN5parcm19propagate_constantsERKNS_5GraphE);
parcm::ConstPropResult propagate_constants(const parcm::Graph& g) {
  Scope span(Layer::kConstprop);
  parcm::ConstPropResult r = real::propagate_constants(g);
  count(Count::kConstpropFolds, r.operands_folded + r.rhs_folded);
  return r;
}

parcm::SinkingResult sink_partially_dead_assignments(const parcm::Graph& g)
    E2E_WRAP(_ZN5parcm31sink_partially_dead_assignmentsERKNS_5GraphE);
parcm::SinkingResult sink_partially_dead_assignments(const parcm::Graph& g) {
  Scope span(Layer::kSinking);
  parcm::SinkingResult r = real::sink_partially_dead_assignments(g);
  count(Count::kSinkingSunk, r.sunk.size());
  return r;
}

parcm::ParallelLiveness compute_parallel_liveness(const parcm::Graph& g,
                                                  const parcm::BitVector& obs)
    E2E_WRAP(_ZN5parcm25compute_parallel_livenessERKNS_5GraphERKNS_9BitVectorE);
parcm::ParallelLiveness compute_parallel_liveness(const parcm::Graph& g,
                                                  const parcm::BitVector& obs) {
  Scope span(Layer::kLiveness);
  return real::compute_parallel_liveness(g, obs);
}

parcm::DceResult eliminate_dead_assignments(const parcm::Graph& g,
                                            const parcm::DceOptions& o)
    E2E_WRAP(_ZN5parcm26eliminate_dead_assignmentsERKNS_5GraphERKNS_10DceOptionsE);
parcm::DceResult eliminate_dead_assignments(const parcm::Graph& g,
                                            const parcm::DceOptions& o) {
  Scope span(Layer::kDce);
  parcm::DceResult r = real::eliminate_dead_assignments(g, o);
  count(Count::kDceEliminated, r.eliminated.size());
  return r;
}

void validate_or_throw(const parcm::Graph& g, const parcm::ValidateOptions& o)
    E2E_WRAP(_ZN5parcm17validate_or_throwERKNS_5GraphERKNS_15ValidateOptionsE);
void validate_or_throw(const parcm::Graph& g, const parcm::ValidateOptions& o) {
  Scope span(Layer::kValidate);
  real::validate_or_throw(g, o);
}

std::string to_text(const parcm::Graph& g)
    E2E_WRAP(_ZN5parcm7to_textB5cxx11ERKNS_5GraphE);
std::string to_text(const parcm::Graph& g) {
  Scope span(Layer::kPrint);
  return real::to_text(g);
}

pv::Verdict differential_check(const parcm::Graph& a, const parcm::Graph& b,
                               const pv::Budget& budget, const Remarks* rm)
    E2E_WRAP(_ZN5parcm6verify18differential_checkERKNS_5GraphES3_RKNS0_6BudgetEPKSt6vectorINS_3obs6RemarkESaIS9_EE);
pv::Verdict differential_check(const parcm::Graph& a, const parcm::Graph& b,
                               const pv::Budget& budget, const Remarks* rm) {
  Scope span(Layer::kExact);
  pv::Verdict v = real::differential_check(a, b, budget, rm);
  count(Count::kExactDecided, v.exact);
  count_verdict(v);
  return v;
}

pv::Verdict vm_differential_check(const parcm::Graph& a, const parcm::Graph& b,
                                  const pv::VmBudget& budget, const Remarks* rm)
    E2E_WRAP(_ZN5parcm6verify21vm_differential_checkERKNS_5GraphES3_RKNS0_8VmBudgetEPKSt6vectorINS_3obs6RemarkESaIS9_EE);
pv::Verdict vm_differential_check(const parcm::Graph& a, const parcm::Graph& b,
                                  const pv::VmBudget& budget, const Remarks* rm) {
  Scope span(Layer::kVm);
  pv::Verdict v = real::vm_differential_check(a, b, budget, rm);
  count_verdict(v);
  return v;
}

pvm::VmProgram lower_to_bytecode(const parcm::Graph& g,
                                 const pvm::LowerOptions& o)
    E2E_WRAP(_ZN5parcm2vm17lower_to_bytecodeERKNS_5GraphERKNS0_12LowerOptionsE);
pvm::VmProgram lower_to_bytecode(const parcm::Graph& g,
                                 const pvm::LowerOptions& o) {
  Scope span(Layer::kVmLower);
  return real::lower_to_bytecode(g, o);
}

pvm::ExecResult seeded_runner_run(pvm::SeededRunner* self, std::uint64_t seed,
                                  const pvm::ExecLimits& limits)
    E2E_WRAP(_ZN5parcm2vm12SeededRunner3runEmRKNS0_10ExecLimitsE);
pvm::ExecResult seeded_runner_run(pvm::SeededRunner* self, std::uint64_t seed,
                                  const pvm::ExecLimits& limits) {
  Scope span(Layer::kVmRun);
  pvm::ExecResult r = real::seeded_runner_run(self, seed, limits);
  count(Count::kVmInstrs, r.instrs);
  return r;
}

}  // namespace e2e::wrapped
