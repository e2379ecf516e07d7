#include "verify/verify.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "semantics/equivalence.hpp"
#include "motion/pcm.hpp"
#include "obs/remarks.hpp"
#include "semantics/interpreter.hpp"
#include "support/rng.hpp"

namespace parcm::verify {

namespace {

// splitmix64 finalizer: decorrelates the per-stratum / per-side RNG streams
// derived from one user-visible seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15uLL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9uLL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBuLL;
  return x ^ (x >> 31);
}

struct SampleStats {
  std::set<std::vector<std::int64_t>> finals;
  std::size_t completed = 0;
  std::size_t aborted = 0;  // step cap hit before termination
};

// One maximal execution under the stratum's scheduling bias. Stratum 0 (and
// every stratum past 2) schedules uniformly on its own stream; stratum 1
// prefers the lowest-index runnable region (near-sequential, left-first
// order), stratum 2 the highest (join-adversarial order). The biased strata
// keep a 1-in-4 uniform escape so repeated samples still diversify.
std::optional<VarState> run_stratum_schedule(const Graph& g, Rng& rng,
                                             std::size_t stratum,
                                             std::size_t max_steps,
                                             bool split) {
  Config c = Config::initial(g);
  VarState s(g.num_vars());
  // Split semantics (Remark 2.1): an assignment is two schedulable steps —
  // evaluate the rhs into a thread-private slot, then store. A region whose
  // pending slot is full is mid-assignment; picking it again completes the
  // store, picking another region interleaves between read and write.
  std::vector<std::optional<std::int64_t>> pending(g.num_regions());
  for (std::size_t step = 0; step < max_steps; ++step) {
    if (c.terminal()) return s;
    std::vector<Transition> ts = enabled_transitions(g, c, s);
    if (ts.empty()) return std::nullopt;  // deadlock: malformed input
    std::size_t pick = 0;
    if (ts.size() == 1) {
      pick = 0;
    } else if (stratum == 1 || stratum == 2) {
      if (rng.chance(1, 4)) {
        pick = rng.below(ts.size());
      } else {
        pick = 0;
        for (std::size_t i = 1; i < ts.size(); ++i) {
          bool better = stratum == 1
                            ? ts[i].region.index() < ts[pick].region.index()
                            : ts[i].region.index() > ts[pick].region.index();
          if (better) pick = i;
        }
      }
    } else {
      pick = rng.below(ts.size());
    }
    const Transition& t = ts[pick];
    if (t.barrier_stmt.valid()) {
      c = apply_transition(g, c, t);
      continue;
    }
    const Node& node = g.node(t.node);
    if (split && node.kind == NodeKind::kAssign) {
      std::optional<std::int64_t>& slot = pending[t.region.index()];
      if (!slot.has_value()) {
        slot = eval_rhs(s, node.rhs);
        continue;  // rhs read done; control stays, the write is a new step
      }
      s.set(node.lhs, *slot);
      slot.reset();
      c = apply_transition(g, c, t);
      continue;
    }
    execute_node(g, t.node, s);
    c = apply_transition(g, c, t);
  }
  return std::nullopt;
}

SampleStats sample_finals(const Graph& g,
                          const std::vector<std::optional<VarId>>& projection,
                          const Budget& budget, std::uint64_t side_salt) {
  SampleStats out;
  std::size_t strata = std::max<std::size_t>(1, budget.strata);
  std::size_t per = std::max<std::size_t>(1, budget.samples / strata);
  for (std::size_t stratum = 0; stratum < strata; ++stratum) {
    Rng rng(mix(budget.sample_seed ^ mix(side_salt) ^ mix(stratum)));
    for (std::size_t i = 0; i < per; ++i) {
      PARCM_OBS_COUNT("verify.sample_schedules", 1);
      std::optional<VarState> fin = run_stratum_schedule(
          g, rng, stratum, budget.max_steps, budget.split_assignments);
      if (!fin.has_value()) {
        ++out.aborted;
        continue;
      }
      ++out.completed;
      std::vector<std::int64_t> row;
      row.reserve(projection.size());
      for (const std::optional<VarId>& v : projection) {
        row.push_back(v.has_value() ? fin->get(*v) : 0);
      }
      out.finals.insert(std::move(row));
    }
  }
  return out;
}

std::vector<std::optional<VarId>> project_vars(
    const Graph& g, const std::vector<std::string>& observed) {
  std::vector<std::optional<VarId>> ids;
  ids.reserve(observed.size());
  for (const std::string& name : observed) ids.push_back(g.find_var(name));
  return ids;
}

}  // namespace

void classify_divergence(Verdict* v, const Graph& before,
                         const std::vector<obs::Remark>* remarks) {
  if (remarks != nullptr) v->pitfalls = pitfalls_from_remarks(*remarks);
  if (!v->pitfalls.empty()) return;
  // A divergent pipeline's own remark stream rarely names a pitfall: the
  // P2/P3 reasons are emitted by the refined analyses when they *block* a
  // placement, and a broken variant went ahead instead of blocking. Re-run
  // refined PCM on the original program and harvest its blocking reasons —
  // whatever the refined analyses guard against on this program is the
  // prime suspect for what the checked transformation tripped over.
  obs::RemarkSink sink;
  sink.set_enabled(true);
  obs::RemarkSink* prev = obs::set_remark_sink(&sink);
  try {
    parallel_code_motion(before);
  } catch (...) {
    obs::set_remark_sink(prev);
    return;  // classification is best-effort; the verdict stands either way
  }
  obs::set_remark_sink(prev);
  std::vector<obs::Remark> refined = sink.snapshot();
  v->pitfalls = pitfalls_from_remarks(refined);
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kEquivalent: return "equivalent";
    case Status::kConsistent: return "consistent";
    case Status::kDiverged: return "diverged";
    case Status::kInconclusive: return "inconclusive";
  }
  return "?";
}

std::string Verdict::witness_text() const {
  if (!witness.has_value()) return {};
  std::ostringstream os;
  for (std::size_t i = 0; i < witness->size() && i < observed.size(); ++i) {
    if (i > 0) os << " ";
    os << observed[i] << "=" << (*witness)[i];
  }
  return os.str();
}

std::string Verdict::summary() const {
  std::ostringstream os;
  os << status_name(status) << " (" << (exact ? "exact" : "sampled") << "): "
     << original_behaviours << " original / " << transformed_behaviours
     << " transformed behaviours";
  if (witness.has_value()) {
    os << " — transformed-only final state " << witness_text();
  }
  if (!pitfalls.empty()) {
    os << " — suspects:";
    for (const std::string& p : pitfalls) os << " " << p;
  }
  return os.str();
}

std::vector<std::string> pitfalls_from_remarks(
    const std::vector<obs::Remark>& remarks) {
  bool seen[3] = {false, false, false};
  for (const obs::Remark& r : remarks) {
    for (obs::RemarkReason reason : r.reasons) {
      const char* tag = obs::remark_reason_pitfall(reason);
      if (tag != nullptr && tag[0] == 'P') {
        int idx = tag[1] - '1';
        if (idx >= 0 && idx < 3) seen[idx] = true;
      }
    }
  }
  std::vector<std::string> out;
  for (int i = 0; i < 3; ++i) {
    if (seen[i]) out.push_back(std::string("P") + static_cast<char>('1' + i));
  }
  return out;
}

Verdict differential_check(const Graph& before, const Graph& after,
                           const Budget& budget,
                           const std::vector<obs::Remark>* remarks) {
  PARCM_OBS_TIMER("verify.differential_check");
  PARCM_OBS_COUNT("verify.checks", 1);
  Verdict v;
  v.observed = all_var_names(before);

  // The original is enumerated once: its result decides whether an exact
  // verdict is possible at all (a truncated original admits none, so the
  // transformed side is then not enumerated), and it is the sampled
  // fallback's reference.
  EnumerationOptions opts;
  opts.max_states = budget.max_states;
  opts.atomic_assignments = !budget.split_assignments;
  opts.partial_order_reduction = true;
  EnumerationResult ref = enumerate_executions(before, v.observed, opts);
  if (ref.exhausted && before.num_nodes() <= budget.max_exact_nodes &&
      after.num_nodes() <= budget.max_exact_nodes) {
    ConsistencyVerdict cv = compare_behaviours(
        ref, enumerate_executions(after, v.observed, opts));
    if (cv.exhausted) {
      PARCM_OBS_COUNT("verify.exact", 1);
      v.exact = true;
      v.original_behaviours = cv.original_behaviours;
      v.transformed_behaviours = cv.transformed_behaviours;
      if (!cv.sequentially_consistent) {
        v.status = Status::kDiverged;
        v.witness = cv.violation_witness;
        PARCM_OBS_COUNT("verify.diverged", 1);
        classify_divergence(&v, before, remarks);
      } else {
        v.status = cv.behaviours_preserved ? Status::kEquivalent
                                           : Status::kConsistent;
      }
      return v;
    }
  }

  // Sampled fallback. The reference set is every original behaviour we can
  // get our hands on: a (possibly partial) enumeration plus the original's
  // own sampled schedules. Both are genuine behaviours, so a sampled
  // transformed-only state really is outside the *observed* reference — but
  // the reference may be incomplete, hence exact=false on every verdict
  // from this path.
  PARCM_OBS_COUNT("verify.sampled", 1);
  std::vector<std::optional<VarId>> before_proj =
      project_vars(before, v.observed);
  std::vector<std::optional<VarId>> after_proj =
      project_vars(after, v.observed);

  SampleStats orig = sample_finals(before, before_proj, budget, 1);
  SampleStats trans = sample_finals(after, after_proj, budget, 2);
  if (trans.completed == 0 || (orig.completed == 0 && ref.finals.empty())) {
    v.status = Status::kInconclusive;
    PARCM_OBS_COUNT("verify.inconclusive", 1);
    return v;
  }

  std::set<std::vector<std::int64_t>> reference = ref.finals;
  reference.insert(orig.finals.begin(), orig.finals.end());

  auto first_missing = [&]() -> const std::vector<std::int64_t>* {
    for (const std::vector<std::int64_t>& row : trans.finals) {
      if (!reference.contains(row)) return &row;
    }
    return nullptr;
  };
  const std::vector<std::int64_t>* bad = first_missing();
  bool reference_complete = ref.exhausted;
  if (bad != nullptr && !reference_complete) {
    // The reference enumeration was truncated, so a "transformed-only" row
    // is more often a missed original behaviour than a miscompile (the
    // transformation stretches rare interleaving windows, biasing the
    // transformed sampler toward states the original sampler almost never
    // hits). Deepen the one-sided enumeration before alarming: it is far
    // cheaper than the two-sided consistency product, and every state it
    // visits is exact reachability evidence.
    PARCM_OBS_COUNT("verify.deep_probes", 1);
    opts.max_states = budget.max_states * 8;
    EnumerationResult deep = enumerate_executions(before, v.observed, opts);
    reference_complete = deep.exhausted;
    reference.insert(deep.finals.begin(), deep.finals.end());
    bad = first_missing();
  }
  v.original_behaviours = reference.size();
  v.transformed_behaviours = trans.finals.size();

  if (bad != nullptr) {
    if (!reference_complete) {
      // The original's behaviour set could not be enumerated to completion
      // (typically a value-divergent nondeterministic loop, where it is
      // infinite) and the sampled row was not found in the part we saw.
      // That distinguishes nothing: a missed rare original behaviour and a
      // real miscompile look identical from here, so the only honest
      // verdict is inconclusive. The witness is kept for diagnostics.
      v.status = Status::kInconclusive;
      v.witness = *bad;
      PARCM_OBS_COUNT("verify.inconclusive", 1);
      return v;
    }
    // The reference is the complete original behaviour set and the row came
    // from a genuine transformed execution, so this is a real divergence
    // even though the verdict is labelled sampled (the *transformed* side
    // was not exhausted).
    v.status = Status::kDiverged;
    v.witness = *bad;
    PARCM_OBS_COUNT("verify.diverged", 1);
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
