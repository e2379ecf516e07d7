#include "analyses/earliest.hpp"

#include "analyses/downsafety.hpp"
#include "analyses/upsafety.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"

namespace parcm {

SafetyInfo compute_safety(const Graph& g, const LocalPredicates& preds,
                          SafetyVariant variant) {
  PARCM_OBS_TIMER("analysis.safety");
  SafetyInfo info;
  info.variant = variant;
  info.num_terms = preds.num_terms();
  PackedProblem up_problem = make_upsafety_problem(g, preds, variant);
  PackedProblem down_problem = make_downsafety_problem(g, preds, variant);
  PARCM_OBS_COUNT("analysis.upsafety.runs", 1);
  PARCM_OBS_COUNT("analysis.downsafety.runs", 1);
  // One after the other on this thread: batch workers already keep the
  // cores busy, and even on idle cores a helper thread saved under 1% of
  // pcm (DESIGN.md §4c).
  info.up_result = solve_packed(g, up_problem);
  info.down_result = solve_packed(g, down_problem);

  info.upsafe.reserve(g.num_nodes());
  info.dnsafe.reserve(g.num_nodes());
  info.safe.reserve(g.num_nodes());
  for (NodeId n : g.all_nodes()) {
    // Up-safety holds *at* n if it holds on entry; down-safety holds at n
    // if n computes t or t stays anticipated after n (the out value of the
    // backward analysis).
    info.upsafe.push_back(info.up_result.entry[n.index()]);
    info.dnsafe.push_back(info.down_result.out[n.index()]);
    info.safe.push_back(info.upsafe.back() | info.dnsafe.back());
  }
  return info;
}

MotionPredicates compute_motion_predicates(
    const Graph& g, const LocalPredicates& preds, const SafetyInfo& safety,
    const MotionPredicateOptions& options) {
  PARCM_OBS_TIMER("analysis.motion_predicates");
  MotionPredicates mp;
  mp.earliest.reserve(g.num_nodes());
  mp.replace.reserve(g.num_nodes());
  std::size_t k = safety.num_terms;
  for (NodeId n : g.all_nodes()) {
    BitVector earliest = safety.dnsafe[n.index()];
    if (n != g.start()) {
      // Some predecessor must block the motion: it is unsafe, or it
      // modifies an operand (placement there would compute a wrong value).
      BitVector blocked(k);
      for (NodeId m : g.preds(n)) {
        BitVector ok = safety.safe[m.index()] & preds.transp(m);
        ok.invert();
        blocked |= ok;
      }
      if (options.parend_export_rule && g.node(n).kind == NodeKind::kParEnd) {
        // A component exit "supports" the join only if the statement
        // exports the value (the up-safe_par synchronization, Sec. 3.3.3):
        // a component's own down-safety justifies its internal coverage but
        // interference (and temp privatization) keeps that value from
        // crossing the join. Const_ff summary => always blocked (the
        // initialization after the join must not be suppressed — the Fig. 7
        // pitfall); Const_tt => never blocked (an establishing component
        // with clean siblings delivers the value).
        const PackedFun& summary =
            safety.up_result.stmt_summary[g.node(n).par_stmt.index()];
        blocked |= summary.ff;
        blocked.and_not(summary.tt);
        if (PARCM_OBS_REMARKS_ON()) {
          // Per-term provenance of the export decision: terms forced to
          // re-initialize after the join (the P3 pitfall the refined
          // up-safe_par synchronization prevents) and terms whose value the
          // statement provably delivers across the join.
          BitVector forced = earliest & summary.ff;
          for (std::size_t t : forced.set_bits()) {
            PARCM_OBS_REMARK(obs::Remark{
                obs::RemarkKind::kBlocked, "", n.value(),
                static_cast<std::int64_t>(t), "",
                "post-join initialization must not be suppressed: every "
                "interleaving is safe, but via different occurrences",
                {obs::RemarkReason::kWitnessDiffers},
                "join exit of the parallel statement"});
          }
          BitVector exported = safety.dnsafe[n.index()] & summary.tt;
          for (std::size_t t : exported.set_bits()) {
            PARCM_OBS_REMARK(obs::Remark{
                obs::RemarkKind::kSkipped, "", n.value(),
                static_cast<std::int64_t>(t), "",
                "no initialization needed after the join: an establishing "
                "component delivers the value on every interleaving",
                {obs::RemarkReason::kExported, obs::RemarkReason::kUpSafe},
                "join exit of the parallel statement"});
          }
        }
      }
      earliest &= blocked;
    }
    mp.earliest.push_back(std::move(earliest));
    mp.replace.push_back(preds.comp(n) & safety.safe[n.index()]);
  }
  return mp;
}

}  // namespace parcm
