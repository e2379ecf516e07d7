#include "motion/lcm.hpp"

#include "analyses/cache.hpp"
#include "dfa/packed.hpp"
#include "ir/printer.hpp"
#include "ir/regions.hpp"
#include "ir/transform_utils.hpp"
#include "motion/dce.hpp"
#include "obs/remarks.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

LcmInternals compute_lcm_internals(const Graph& g, const TermTable& terms,
                                   const LocalPredicates& preds,
                                   const MotionPredicates& mp) {
  std::size_t k = terms.size();
  LcmInternals res;

  // Both fixpoints run on the packed engine (dfa/packed). A sequential
  // graph has no parallel statement, so only its value step runs: a must
  // problem, out = (entry & ~kill) | gen with entry the meet over
  // predecessors in flow direction.
  auto problem = [&](Direction dir, BitVector boundary) {
    PackedProblem p;
    p.dir = dir;
    p.num_terms = k;
    p.boundary = std::move(boundary);
    p.destroy.assign(g.num_nodes(), BitVector(k));
    p.gen.reserve(g.num_nodes());
    p.kill.reserve(g.num_nodes());
    return p;
  };

  // Delayability (forward, must): an initialization placed at the earliest
  // points can be postponed to n's entry iff on *every* path an earliest
  // point has been passed and no original computation consumed the value
  // since: delay_in = entry | earliest, and a computation (the consumer)
  // kills on the way out. Nothing is delayed into s* but its own earliest
  // terms.
  PackedProblem delay = problem(Direction::kForward, BitVector(k));
  for (NodeId n : g.all_nodes()) {
    delay.gen.push_back(mp.earliest[n.index()]);
    delay.gen.back().and_not(preds.comp(n));
    delay.kill.push_back(preds.comp(n));
  }
  res.delay_in = solve_packed(g, delay).entry;
  for (NodeId n : g.all_nodes()) {
    res.delay_in[n.index()] |= mp.earliest[n.index()];
  }

  // Latest: the frontier of delayability — delayed here, but not delayable
  // into every successor (or consumed right here).
  res.latest.assign(g.num_nodes(), BitVector(k));
  for (NodeId n : g.all_nodes()) {
    BitVector all_succs_delayed(k, true);
    for (NodeId m : g.succs(n)) all_succs_delayed &= res.delay_in[m.index()];
    BitVector frontier = all_succs_delayed;
    frontier.invert();
    frontier |= preds.comp(n);
    res.latest[n.index()] = res.delay_in[n.index()] & frontier;
  }

  // Usefulness (backward, may): some later computation consumes the value
  // initialized at n — a path from n reaches a Comp node that is not itself
  // a latest point, without first crossing another latest point. Solved as
  // its complement, a must problem: the value is useless at n iff every
  // successor is a latest point (the consumers below it belong to that
  // insertion) or neither consumes it nor passes it on usefully.
  PackedProblem useless = problem(Direction::kBackward, BitVector(k, true));
  for (NodeId n : g.all_nodes()) {
    useless.gen.push_back(res.latest[n.index()]);
    useless.kill.push_back(preds.comp(n));
    useless.kill.back().and_not(res.latest[n.index()]);
  }
  res.useful = solve_packed(g, useless).entry;
  for (BitVector& u : res.useful) u.invert();
  return res;
}

MotionResult lazy_code_motion(const Graph& g) {
  PARCM_CHECK(g.num_par_stmts() == 0,
              "lazy_code_motion is sequential-only; the parallel "
              "transformation is parallel_code_motion");

  PARCM_OBS_REMARK_PASS("lcm");
  MotionResult res{g, 0, {}, {}, {}};
  Graph& out = res.graph;
  res.synthetic_nodes = split_join_edges(out);

  std::shared_ptr<const AnalysisBundle> analyses =
      analysis_cache().acquire(out);
  const TermTable& terms = analyses->terms;
  const LocalPredicates& preds = analyses->preds;
  res.safety = compute_safety(out, preds, SafetyVariant::kRefined);
  res.predicates = compute_motion_predicates(out, preds, res.safety);
  LcmInternals lcm = compute_lcm_internals(out, terms, preds, res.predicates);

  avector<NodeId> analyzed(out.all_nodes().begin(), out.all_nodes().end());
  for (TermId t : terms.all()) {
    TermMotion motion;
    motion.term = t;
    motion.term_value = terms.term(t);
    motion.temp = out.intern_var(fresh_temp_name(out, motion.term_value));

    for (NodeId n : analyzed) {
      std::size_t ti = t.index();
      bool latest = lcm.latest[n.index()].test(ti);
      bool useful = lcm.useful[n.index()].test(ti);
      bool comp = preds.comp(n, t);
      // Isolation: a latest point whose temporary no later computation
      // consumes serves only its own replacement — keep the original.
      bool insert = latest && (useful || !comp);
      bool replace =
          comp && res.predicates.replace[n.index()].test(ti) &&
          !(latest && !useful);
      if (latest && !useful && comp) {
        // Isolation: the latest point coincides with its only consumer, so
        // hoisting would trade the computation for an equal-cost copy.
        PARCM_OBS_REMARK(obs::Remark{
            obs::RemarkKind::kSkipped, "", n.value(),
            static_cast<std::int64_t>(ti),
            term_to_string(out, motion.term_value),
            "latest point serves only its own computation: original kept",
            {obs::RemarkReason::kLatest, obs::RemarkReason::kIsolated},
            ""});
      }
      if (insert) {
        motion.insert_points.push_back(n);
        if (n == out.start()) {
          avector<EdgeId> outgoing = out.node(n).out_edges;
          for (EdgeId e : outgoing) {
            NodeId init = out.new_assign(edge_region(out, e), motion.temp,
                                         Rhs(motion.term_value));
            wire_on_edge(out, e, init);
            motion.insert_nodes.push_back(init);
            PARCM_OBS_REMARK(obs::Remark{
                obs::RemarkKind::kInserted, "", n.value(),
                static_cast<std::int64_t>(ti),
                term_to_string(out, motion.term_value),
                "initialize " + out.var_name(motion.temp) +
                    " on the outgoing edge (node n" +
                    std::to_string(init.value()) + ")",
                {obs::RemarkReason::kLatest,
                 obs::RemarkReason::kEdgePlacement},
                ""});
          }
        } else {
          NodeId init = out.new_assign(out.node(n).region, motion.temp,
                                       Rhs(motion.term_value));
          out.splice_before(init, n);
          motion.insert_nodes.push_back(init);
          PARCM_OBS_REMARK(obs::Remark{
              obs::RemarkKind::kInserted, "", n.value(),
              static_cast<std::int64_t>(ti),
              term_to_string(out, motion.term_value),
              "initialize " + out.var_name(motion.temp) +
                  " immediately before this node (node n" +
                  std::to_string(init.value()) + ")",
              {obs::RemarkReason::kLatest},
              ""});
        }
      }
      if (replace) {
        out.node(n).rhs = Rhs(Operand::var(motion.temp));
        motion.replaced.push_back(n);
        PARCM_OBS_REMARK(obs::Remark{
            obs::RemarkKind::kReplaced, "", n.value(),
            static_cast<std::int64_t>(ti),
            term_to_string(out, motion.term_value),
            "computation replaced by the temporary " +
                out.var_name(motion.temp),
            {obs::RemarkReason::kComputes},
            ""});
      }
    }
    if (!motion.insert_nodes.empty() || !motion.replaced.empty()) {
      res.terms.push_back(std::move(motion));
    }
  }
  return res;
}

std::size_t total_temp_lifetime(const Graph& g, const std::string& prefix) {
  ParallelLiveness live = compute_parallel_liveness(g, BitVector(g.num_vars()));
  std::size_t total = 0;
  for (std::size_t i = 0; i < g.num_vars(); ++i) {
    VarId v(static_cast<VarId::underlying>(i));
    if (g.var_name(v).rfind(prefix, 0) != 0) continue;
    for (NodeId n : g.all_nodes()) total += live.live_in(n, v) ? 1 : 0;
  }
  return total;
}

}  // namespace parcm
