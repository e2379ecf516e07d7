#include "verify/vm_oracle.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "semantics/enumerator.hpp"
#include "vm/bytecode.hpp"
#include "vm/executor.hpp"

namespace parcm::verify {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15uLL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9uLL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBuLL;
  return x ^ (x >> 31);
}

std::vector<std::string> all_var_names(const Graph& g) {
  std::vector<std::string> names;
  names.reserve(g.num_vars());
  for (std::size_t i = 0; i < g.num_vars(); ++i) {
    names.push_back(g.var_name(VarId(static_cast<std::uint32_t>(i))));
  }
  return names;
}

struct VmSamples {
  std::set<std::vector<std::int64_t>> finals;
  std::size_t completed = 0;
};

// `stream` tags the side so original and transformed runs draw independent
// schedule streams (mirrors sample_finals' stream discipline).
VmSamples sample_vm_finals(const Graph& g,
                           const std::vector<std::string>& observed,
                           const VmBudget& budget, std::uint64_t stream) {
  VmSamples out;
  vm::VmProgram p = vm::lower_to_bytecode(g);  // split: semantics of record
  std::vector<std::optional<VarId>> proj;
  proj.reserve(observed.size());
  for (const std::string& name : observed) proj.push_back(g.find_var(name));
  vm::ExecLimits limits;
  limits.max_steps = budget.max_steps;
  vm::SeededRunner runner(p);
  PARCM_OBS_COUNT("verify.vm_schedules", budget.schedules);
  for (std::size_t i = 0; i < budget.schedules; ++i) {
    std::uint64_t seed = mix(budget.seed ^ mix(stream) ^ i);
    // Stratified perturbation (mirrors sample_finals): a third of the
    // budget each for uniform, spawn-order-biased and reverse-biased
    // schedules — the biased strata reach the corner interleavings whose
    // finals would otherwise surface only through an escalation.
    limits.schedule_bias =
        i % 3 == 0 ? 0 : (i % 3 == 1 ? -1 : 1);
    vm::ExecResult r = runner.run(seed, limits);
    if (!r.ok) continue;  // step budget: a spinning nondeterministic loop
    ++out.completed;
    std::vector<std::int64_t> row;
    row.reserve(proj.size());
    for (const std::optional<VarId>& v : proj) {
      row.push_back(v.has_value() ? r.store[v->index()] : 0);
    }
    out.finals.insert(std::move(row));
  }
  return out;
}

}  // namespace

Verdict vm_differential_check(const Graph& before, const Graph& after,
                              const VmBudget& budget,
                              const std::vector<obs::Remark>* remarks) {
  PARCM_OBS_TIMER("verify.vm_differential_check");
  PARCM_OBS_COUNT("verify.vm_checks", 1);
  Verdict v;
  v.observed = all_var_names(before);

  VmSamples orig = sample_vm_finals(before, v.observed, budget, 1);
  VmSamples trans = sample_vm_finals(after, v.observed, budget, 2);
  if (trans.completed == 0 || orig.completed == 0) {
    v.status = Status::kInconclusive;
    PARCM_OBS_COUNT("verify.vm_inconclusive", 1);
    return v;
  }

  // Fast path: every VM-sampled original final is a genuine behaviour, so
  // containment needs no enumeration at all — the common (clean) case costs
  // exactly 2 * schedules executions.
  std::set<std::vector<std::int64_t>> reference = std::move(orig.finals);
  auto first_missing = [&]() -> const std::vector<std::int64_t>* {
    for (const std::vector<std::int64_t>& row : trans.finals) {
      if (!reference.contains(row)) return &row;
    }
    return nullptr;
  };
  const std::vector<std::int64_t>* bad = first_missing();
  bool reference_complete = false;

  if (bad != nullptr) {
    // A racy-but-legal final the base sample missed is far more common
    // than a real divergence, and 3x more schedules cost ~nothing next to
    // a POR enumeration: deepen the original-side sample before reaching
    // for the enumerator.
    PARCM_OBS_COUNT("verify.vm_deepenings", 1);
    VmBudget deep = budget;
    deep.schedules = budget.schedules * 3;
    VmSamples more = sample_vm_finals(before, v.observed, deep, 3);
    reference.insert(more.finals.begin(), more.finals.end());
    bad = first_missing();
  }

  if (bad != nullptr && before.num_nodes() <= budget.max_exact_nodes) {
    // Candidate divergence: the schedule sampler missed something, or the
    // transformation manufactured a new behaviour. Only a *complete*
    // one-sided enumeration of the original can tell them apart; it is far
    // cheaper than the two-sided product the exact oracle builds. The
    // enumeration's visiting order does not depend on its state budget, so
    // a run at 1x would only visit a prefix of the 8x run's states: the
    // escalation runs at 8x directly.
    PARCM_OBS_COUNT("verify.vm_escalations", 1);
    EnumerationOptions opts;
    opts.max_states = budget.max_states * 8;
    opts.atomic_assignments = false;  // split semantics, like the VM
    opts.partial_order_reduction = true;
    EnumerationResult ref = enumerate_executions(before, v.observed, opts);
    reference_complete = ref.exhausted;
    reference.insert(ref.finals.begin(), ref.finals.end());
    bad = first_missing();
  }
  v.original_behaviours = reference.size();
  v.transformed_behaviours = trans.finals.size();

  if (bad != nullptr) {
    if (!reference_complete) {
      // Indistinguishable from a missed rare original behaviour; keep the
      // candidate as a diagnostic witness but claim nothing.
      v.status = Status::kInconclusive;
      v.witness = *bad;
      PARCM_OBS_COUNT("verify.vm_inconclusive", 1);
      return v;
    }
    v.status = Status::kDiverged;
    v.witness = *bad;
    PARCM_OBS_COUNT("verify.vm_diverged", 1);
    classify_divergence(&v, before, remarks);
    return v;
  }
  v.status = std::includes(trans.finals.begin(), trans.finals.end(),
                           reference.begin(), reference.end())
                 ? Status::kEquivalent
                 : Status::kConsistent;
  return v;
}

}  // namespace parcm::verify
