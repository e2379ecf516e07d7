#include "motion/code_motion.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "analyses/cache.hpp"
#include "dfa/region_meta.hpp"
#include "ir/printer.hpp"
#include "ir/regions.hpp"
#include "ir/transform_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

std::size_t MotionResult::num_insertions() const {
  std::size_t n = 0;
  for (const TermMotion& t : terms) n += t.insert_nodes.size();
  return n;
}

std::size_t MotionResult::num_replacements() const {
  std::size_t n = 0;
  for (const TermMotion& t : terms) n += t.replaced.size();
  return n;
}

namespace {

const char* op_word(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kDiv: return "div";
    case BinOp::kLt: return "lt";
    case BinOp::kLe: return "le";
    case BinOp::kGt: return "gt";
    case BinOp::kGe: return "ge";
    case BinOp::kEq: return "eq";
    case BinOp::kNe: return "ne";
  }
  return "op";
}

std::string operand_word(const Graph& g, const Operand& op) {
  if (op.is_var()) return g.var_name(op.var_id());
  std::int64_t v = op.const_value();
  return v < 0 ? "m" + std::to_string(-v) : std::to_string(v);
}

}  // namespace

std::string fresh_temp_name(const Graph& g, const Term& t) {
  std::string base = "h_" + operand_word(g, t.lhs) + "_" + op_word(t.op) +
                     "_" + operand_word(g, t.rhs);
  std::string name = base;
  int suffix = 0;
  while (g.find_var(name).has_value()) {
    name = base + "_" + std::to_string(++suffix);
  }
  return name;
}

namespace {

using Word = BitVector::Word;

// Per-region facts about each term, as rows of `words` words indexed by
// region. The transformation only adds temp initializations and trivial
// copies, which never compute a term or modify its operands, so facts
// folded once from the analyzed nodes stay exact while the graph grows.
struct RegionFolds {
  std::size_t words = 0;
  // Over the region's whole subtree (one bottom-up fold, dfa/region_meta):
  // some node modifies an operand of t ...
  std::vector<Word> mod;
  // ... or computes t, modifies an operand of t, or is a barrier (the
  // region is then opaque for every term).
  std::vector<Word> opaque;
  // One top-down pass: the region or a component enclosing it is
  // transparent for t (not opaque).
  std::vector<Word> in_transparent;

  RegionFolds(const Graph& g, const LocalPredicates& preds,
              std::size_t num_terms)
      : words((num_terms + BitVector::kWordBits - 1) / BitVector::kWordBits) {
    std::vector<Word> direct_mod(g.num_regions() * words, 0);
    std::vector<Word> direct_opaque(g.num_regions() * words, 0);
    for (NodeId n : g.all_nodes()) {
      std::size_t row = g.node(n).region.index() * words;
      const avector<Word>& comp = preds.comp(n).words();
      const avector<Word>& modified = preds.mod(n).words();
      Word barrier = g.node(n).kind == NodeKind::kBarrier ? ~Word{0} : 0;
      for (std::size_t w = 0; w < words; ++w) {
        direct_mod[row + w] |= modified[w];
        direct_opaque[row + w] |= comp[w] | modified[w] | barrier;
      }
    }
    mod = region_subtree_rows(g, direct_mod, words);
    opaque = region_subtree_rows(g, direct_opaque, words);
    // Parents precede their components, so one forward scan suffices.
    in_transparent.assign(g.num_regions() * words, 0);
    for (std::size_t ri = 1; ri < g.num_regions(); ++ri) {
      RegionId r(static_cast<RegionId::underlying>(ri));
      RegionId parent = g.par_stmt(g.region(r).owner).parent_region;
      for (std::size_t w = 0; w < words; ++w) {
        in_transparent[ri * words + w] =
            in_transparent[parent.index() * words + w] |
            ~opaque[ri * words + w];
      }
    }
  }

  bool test(const std::vector<Word>& rows, RegionId r, TermId t) const {
    return BitVector::test_bit(rows.data() + r.index() * words, t.index());
  }
};

// Per-term node lists of one predicate, transposed from its per-node rows
// in one pass (CSR by term, nodes ascending).
struct TermNodeLists {
  std::vector<std::size_t> offset;  // num_terms + 1
  std::vector<NodeId> nodes;

  TermNodeLists(const std::vector<BitVector>& rows, std::size_t num_nodes,
                std::size_t num_terms)
      : offset(num_terms + 1, 0) {
    for (std::size_t n = 0; n < num_nodes; ++n) {
      rows[n].for_each_set_bit([&](std::size_t t) { ++offset[t + 1]; });
    }
    for (std::size_t t = 0; t < num_terms; ++t) offset[t + 1] += offset[t];
    nodes.resize(offset[num_terms]);
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (std::size_t n = 0; n < num_nodes; ++n) {
      rows[n].for_each_set_bit([&](std::size_t t) {
        nodes[cursor[t]++] = NodeId(static_cast<NodeId::underlying>(n));
      });
    }
  }

  std::span<const NodeId> of(TermId t) const {
    return {nodes.data() + offset[t.index()],
            nodes.data() + offset[t.index() + 1]};
  }
};

// Per-run scratch of privatize_term: the parallel statements innermost
// first (statements never change during a run, so they are sorted once),
// and per component region the nodes of its subtree that may name the
// term's temporary.
struct PrivatizeScratch {
  std::vector<ParStmtId> order;
  std::vector<std::vector<NodeId>> accesses;  // by region
  std::vector<RegionId> filled;

  explicit PrivatizeScratch(const Graph& g) : accesses(g.num_regions()) {
    for (std::size_t i = 0; i < g.num_par_stmts(); ++i) {
      order.push_back(ParStmtId(static_cast<ParStmtId::underlying>(i)));
    }
    std::sort(order.begin(), order.end(), [&](ParStmtId a, ParStmtId b) {
      return g.region_depth(g.par_stmt(a).parent_region) >
             g.region_depth(g.par_stmt(b).parent_region);
    });
  }
};

// Component-private temporaries (refined variant): inside a parallel
// statement where some node modifies an operand of the term, sibling
// components may write stale values into the shared temporary while another
// component (or the code after the join) still relies on it. Renaming every
// in-component access to a per-component temp removes the race; zero-cost
// trivial copies bridge the two legitimate cross-boundary flows — an
// upstream value entering a component (h_C := h at the component entry) and
// the unique operand-modifying component establishing up-safety at the exit
// (h := h_C after the ParEnd). Processes statements innermost-first so an
// outer rename uniformly captures inner bridges.
//
// The temporary is fresh, so only the term's own initializations,
// replacements and bridges can name it. Each of them is filed under every
// component region enclosing it, so a component reads its own accesses
// instead of walking its subtree.
void privatize_term(Graph& out, const RegionFolds& folds,
                    const SafetyInfo& safety, TermMotion& motion,
                    PrivatizeScratch& scratch) {
  TermId t = motion.term;
  std::size_t ti = t.index();

  auto add_access = [&](NodeId n) {
    for (RegionId r = out.node(n).region; r != out.root_region();
         r = out.par_stmt(out.region(r).owner).parent_region) {
      std::vector<NodeId>& bucket = scratch.accesses[r.index()];
      if (bucket.empty()) scratch.filled.push_back(r);
      bucket.push_back(n);
    }
  };
  for (NodeId n : motion.insert_nodes) add_access(n);
  for (NodeId n : motion.replaced) add_access(n);
  auto reads_temp = [&](const Node& node) {
    return node.rhs.is_trivial() && node.rhs.trivial().is_var() &&
           node.rhs.trivial().var_id() == motion.temp;
  };

  for (ParStmtId s : scratch.order) {
    const ParStmt& stmt = out.par_stmt(s);
    bool dirty = false;
    std::vector<char> comp_dirty;
    for (RegionId comp : stmt.components) {
      bool d = folds.test(folds.mod, comp, t);
      comp_dirty.push_back(d);
      dirty = dirty || d;
    }
    if (!dirty) continue;

    RegionId dirty_comp;
    int dirty_count = 0;
    std::vector<std::pair<RegionId, VarId>> renamed;
    for (std::size_t ci = 0; ci < stmt.components.size(); ++ci) {
      RegionId comp = stmt.components[ci];
      if (comp_dirty[ci]) {
        ++dirty_count;
        dirty_comp = comp;
      }
      // Rename accesses of the shared temp within this component.
      const std::vector<NodeId>& members = scratch.accesses[comp.index()];
      bool any_access = std::any_of(
          members.begin(), members.end(), [&](NodeId n) {
            const Node& node = out.node(n);
            return node.kind == NodeKind::kAssign &&
                   (node.lhs == motion.temp || reads_temp(node));
          });
      if (!any_access) continue;

      VarId priv = out.intern_var(out.var_name(motion.temp) + "_c" +
                                  std::to_string(comp.value()));
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kDegraded, "",
          out.component_entry(comp).value(),
          static_cast<std::int64_t>(t.index()),
          term_to_string(out, motion.term_value),
          "sibling components race on the shared temporary: accesses in "
          "this component renamed to " + out.var_name(priv),
          {obs::RemarkReason::kPrivatized},
          "component region r" + std::to_string(comp.value())});
      for (NodeId n : members) {
        Node& node = out.node(n);
        if (node.kind != NodeKind::kAssign) continue;
        if (node.lhs == motion.temp) node.lhs = priv;
        if (reads_temp(node)) node.rhs = Rhs(Operand::var(priv));
      }
      // Entry bridge: carry an upstream value of the shared temp in.
      NodeId bridge = out.new_assign(comp, priv, Rhs(Operand::var(motion.temp)));
      out.splice_before(bridge, out.component_entry(comp));
      motion.bridge_nodes.push_back(bridge);
      add_access(bridge);
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kInserted, "", bridge.value(),
          static_cast<std::int64_t>(t.index()),
          term_to_string(out, motion.term_value),
          out.var_name(priv) + " := " + out.var_name(motion.temp) +
              " carries the upstream value into the component",
          {obs::RemarkReason::kBridgeCopy, obs::RemarkReason::kPrivatized},
          ""});
      renamed.emplace_back(comp, priv);
      motion.private_temps.emplace_back(comp, priv);
    }

    // Exit bridge: the statement exit is up-safe_par only via the unique
    // operand-modifying component; code after the join reads the shared
    // temp, so copy the establishing component's value out.
    if (s.index() < safety.up_result.stmt_summary.size() &&
        safety.up_result.stmt_summary[s.index()].tt.test(ti) &&
        dirty_count == 1) {
      for (const auto& [comp, priv] : renamed) {
        if (comp != dirty_comp) continue;
        NodeId end = stmt.end;
        avector<EdgeId> outgoing = out.node(end).out_edges;
        for (EdgeId e : outgoing) {
          NodeId bridge = out.new_assign(edge_region(out, e), motion.temp,
                                         Rhs(Operand::var(priv)));
          wire_on_edge(out, e, bridge);
          motion.bridge_nodes.push_back(bridge);
          add_access(bridge);
        }
      }
    }
  }
  for (RegionId r : scratch.filled) scratch.accesses[r.index()].clear();
  scratch.filled.clear();
}

}  // namespace

MotionResult run_code_motion(const Graph& g, const CodeMotionConfig& config) {
  return run_code_motion(g, config, PlacementObserver());
}

MotionResult run_code_motion(const Graph& g, const CodeMotionConfig& config,
                             const PlacementObserver& observer) {
  PARCM_OBS_TIMER("motion.run_code_motion");
  MotionResult res{g, 0, {}, {}, {}};
  Graph& out = res.graph;

  res.synthetic_nodes = split_join_edges(out);

  // One cache lookup covers TermTable + LocalPredicates; repeated passes
  // over an unchanged graph (and benchmark loops rebuilding identical
  // programs) skip the rebuild entirely.
  std::shared_ptr<const AnalysisBundle> analyses =
      analysis_cache().acquire(out);
  const TermTable& terms = analyses->terms;
  const LocalPredicates& preds = analyses->preds;
  res.safety = compute_safety(out, preds, config.variant);
  MotionPredicateOptions mp_options;
  mp_options.parend_export_rule = config.parend_export_rule;
  res.predicates = compute_motion_predicates(out, preds, res.safety,
                                             mp_options);

  PARCM_OBS_TIMER("motion.placement");

  // The node set is about to grow; ids below `analyzed` carry predicates.
  const std::size_t analyzed = out.num_nodes();
  const TermNodeLists earliest_nodes(res.predicates.earliest, analyzed,
                                     terms.size());
  const TermNodeLists replace_nodes(res.predicates.replace, analyzed,
                                    terms.size());

  // Down-safety legitimately flows backward across a ParEnd into components
  // that are completely transparent for a term (the anticipated use lies
  // behind the join), which makes their entries Earliest. An insertion
  // there is never needed for coverage — no replacement inside the
  // component consumes it and the post-join uses are covered by the
  // establishing components or their own insertions — and it would move a
  // computation *into* a parallel component that never performed it
  // (potentially the bottleneck). Suppress those insertions. A barrier
  // inside the subtree makes a component non-transparent for coverage even
  // when it neither computes nor modifies anything: the barrier kills
  // down-safety, so the Earliest frontier of a post-join use can lie
  // entirely *inside* such components — suppressing those inserts leaves
  // the replacement reading an uninitialized temporary (found by
  // parcm_fuzz: nested par around a barrier plus any post-join occurrence).
  const RegionFolds folds(out, preds, terms.size());
  auto useless_insert = [&](NodeId n, TermId t) {
    return folds.test(folds.in_transparent, out.node(n).region, t);
  };

  // A second profitability pass: in parallel programs the Earliest frontier
  // need not be an antichain — interference (NonDest) can end a down-safe
  // region inside a component and a fresh anchor fires again behind the
  // join, so a path through the component would initialize the temporary
  // twice, violating the executional-improvement guarantee the busy formula
  // enjoys sequentially. Anchors therefore *sink*: an anchor stays only
  // where every continuation must reach a consumer (a replacement) before a
  // kill, another anchor or the end; otherwise it moves down to the
  // frontier where that becomes true (in the worst case, onto the consumers
  // themselves — the cost-neutral in-place initialization). Descents never
  // enter a ParBegin: placing one anchor per component would multiply the
  // computation across sibling executions, so the anchor stops at the
  // statement entry, and only if a consumer lies beyond it. A statement
  // transparent for the term (no component computes it, modifies an operand
  // or holds a barrier) can be passed as one transparent node: an anchor on
  // its ParBegin, and a descent that reaches it inside a loop (where
  // stopping would initialize once per iteration), continue from its
  // ParEnd. Elsewhere the descent still stops at its ParBegin, which keeps
  // the established placements (Fig. 10's golden dump). Paths on which the
  // BFS dies need no anchor at all — which also erases anchors made fully
  // redundant by a later one. "Every continuation reaches a consumer" is
  // MUSTUSE, solved per anchor on the cone of nodes the descent can read
  // (motion/mustuse.hpp).

  // The blocking set: the term's current anchors. Reused across terms; a
  // term clears the entries it set.
  std::vector<char> in_set;
  MustUseProblem problem;
  problem.graph = &out;
  problem.preds = &preds;
  problem.replace = &res.predicates.replace;
  problem.analyzed = analyzed;
  problem.blocking = &in_set;
  MustUseCone cone;
  std::uint64_t cone_nodes = 0;

  auto par_end = [&](NodeId begin) {
    return out.par_stmt(out.node(begin).par_stmt).end;
  };
  auto stmt_transparent = [&](NodeId begin, TermId t) {
    for (RegionId c : out.par_stmt(out.node(begin).par_stmt).components) {
      if (folds.test(folds.opaque, c, t)) return false;
    }
    return true;
  };

  // Searches over the growing graph take a fresh epoch of their visit
  // marks instead of clearing them: `seen` for reachability queries,
  // `visited` for the descent that may issue them.
  std::vector<std::uint32_t> seen, visited;
  std::uint32_t seen_epoch = 0, visited_epoch = 0;
  auto next_epoch = [&](std::vector<std::uint32_t>& marks,
                        std::uint32_t& epoch) {
    if (marks.size() < out.num_nodes()) marks.resize(out.num_nodes(), 0);
    if (++epoch == 0) {  // wrapped: stale marks could alias the new epoch
      std::fill(marks.begin(), marks.end(), 0);
      epoch = 1;
    }
  };
  std::vector<NodeId> search;
  auto reachable = [&](NodeId from, auto&& found, auto&& expand) {
    next_epoch(seen, seen_epoch);
    search.clear();
    for (EdgeId e : out.node(from).out_edges) {
      search.push_back(out.edge(e).to);
    }
    while (!search.empty()) {
      NodeId n = search.back();
      search.pop_back();
      if (seen[n.index()] == seen_epoch) continue;
      seen[n.index()] = seen_epoch;
      if (found(n)) return true;
      if (!expand(n)) continue;
      for (EdgeId e : out.node(n).out_edges) {
        search.push_back(out.edge(e).to);
      }
    }
    return false;
  };
  // A statement lies on a cycle iff its ParEnd reaches its ParBegin;
  // splicing initializations onto edges keeps that, so it is cached.
  std::vector<signed char> stmt_on_cycle(out.num_par_stmts(), -1);
  auto on_cycle = [&](NodeId begin) {
    signed char& cached = stmt_on_cycle[out.node(begin).par_stmt.index()];
    if (cached < 0) {
      cached = reachable(
          par_end(begin), [&](NodeId n) { return n == begin; },
          [](NodeId) { return true; });
    }
    return cached == 1;
  };

  // Sinks anchor a against the blocking set into `frontier` (empty if
  // every path dies first); returns whether it solved a's cone.
  std::vector<NodeId> frontier, stack;
  auto sink_anchor = [&](NodeId a, TermId t) {
    frontier.clear();
    if (problem.is_replace(a)) {
      frontier.push_back(a);
      return false;
    }
    // The anchor's own node kills the value; nothing to sink past.
    if (!problem.is_transp(a)) return false;
    cone.solve(problem, a);
    cone_nodes += cone.nodes().size();
    bool keep = !out.node(a).out_edges.empty();
    for (EdgeId e : out.node(a).out_edges) {
      keep = keep && cone.mustuse(out.edge(e).to);
    }
    if (keep) {
      frontier.push_back(a);
      return true;
    }
    next_epoch(visited, visited_epoch);
    stack.clear();
    auto push = [&](NodeId m) {
      if (visited[m.index()] != visited_epoch) {
        visited[m.index()] = visited_epoch;
        stack.push_back(m);
      }
    };
    if (out.node(a).kind == NodeKind::kParBegin && stmt_transparent(a, t)) {
      push(par_end(a));
    } else {
      for (EdgeId e : out.node(a).out_edges) push(out.edge(e).to);
    }
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      if (cone.mustuse(n) || problem.is_replace(n)) {
        frontier.push_back(n);
        continue;
      }
      if (out.node(n).kind == NodeKind::kParBegin) {
        if (!problem.is_blocking(n) && stmt_transparent(n, t) &&
            on_cycle(n)) {
          push(par_end(n));
        } else if (reachable(
                       n, [&](NodeId m) { return problem.is_replace(m); },
                       [&](NodeId m) {
                         return problem.is_transp(m) &&
                                !problem.is_blocking(m);
                       })) {
          frontier.push_back(n);
        }
        continue;
      }
      if (!problem.is_transp(n)) continue;  // value dead on this path
      if (problem.is_blocking(n)) continue;
      for (EdgeId e : out.node(n).out_edges) push(out.edge(e).to);
    }
    return true;
  };

  // Reused across terms: emit_batch leaves the capacity in place, so the
  // hot replacement loop allocates a remark buffer once per run.
  std::vector<obs::Remark> replace_batch;
  std::optional<PrivatizeScratch> privatize;
  std::vector<NodeId> candidates, anchors;

  for (TermId t : terms.all()) {
    TermMotion motion;
    motion.term = t;
    motion.term_value = terms.term(t);
    motion.temp = out.intern_var(fresh_temp_name(out, motion.term_value));
    problem.term = t;

    // Remark emission is hot on large programs (one remark per insertion
    // and replacement); hoist the per-term invariant strings so each
    // emission copies instead of re-rendering.
    std::string term_str, replace_msg;
    obs::ReasonChain replace_why[4];
    if (PARCM_OBS_REMARKS_ON()) {
      term_str = term_to_string(out, motion.term_value);
      replace_msg =
          "computation replaced by the temporary " + out.var_name(motion.temp);
      // Index: bit 0 = up-safe, bit 1 = down-safe.
      for (int mask = 0; mask < 4; ++mask) {
        replace_why[mask].push_back(obs::RemarkReason::kComputes);
        if (mask & 1) replace_why[mask].push_back(obs::RemarkReason::kUpSafe);
        if (mask & 2) replace_why[mask].push_back(obs::RemarkReason::kDownSafe);
      }
    }

    in_set.resize(out.num_nodes(), 0);
    candidates.clear();
    for (NodeId n : earliest_nodes.of(t)) {
      if (useless_insert(n, t)) {
        PARCM_OBS_REMARK(obs::Remark{
            obs::RemarkKind::kBlocked, "", n.value(),
            static_cast<std::int64_t>(t.index()),
            term_str,
            "insertion would move the computation into a parallel component "
            "that never performs it: the component could become the "
            "bottleneck",
            {obs::RemarkReason::kEarliest, obs::RemarkReason::kBottleneck},
            ""});
        continue;
      }
      in_set[n.index()] = 1;
      candidates.push_back(n);
    }
    // Sink each candidate against the current set (sequential updates keep
    // mutually-blocking anchors from vanishing together).
    anchors.clear();
    if (config.sink_anchors) {
      for (NodeId a : candidates) {
        in_set[a.index()] = 0;
        if (sink_anchor(a, t) && observer) observer(problem, a, cone);
        for (NodeId m : frontier) {
          if (!in_set[m.index()]) {
            in_set[m.index()] = 1;
            anchors.push_back(m);
          }
        }
        if (PARCM_OBS_REMARKS_ON()) {
          if (frontier.empty()) {
            PARCM_OBS_REMARK(obs::Remark{
                obs::RemarkKind::kSkipped, "", a.value(),
                static_cast<std::int64_t>(t.index()),
                term_str,
                "anchor dropped: every continuation kills the value before "
                "any consumer needs it",
                {obs::RemarkReason::kValueDies},
                ""});
          } else if (frontier.size() != 1 || frontier.front() != a) {
            std::string where;
            for (NodeId m : frontier) {
              if (!where.empty()) where += ", ";
              where += "n" + std::to_string(m.value());
            }
            PARCM_OBS_REMARK(obs::Remark{
                obs::RemarkKind::kDegraded, "", a.value(),
                static_cast<std::int64_t>(t.index()),
                term_str,
                "earliest anchor is not executionally optimal here: a path "
                "would initialize the temporary twice, so the anchor sinks",
                {obs::RemarkReason::kAnchorSunk},
                "frontier: " + where});
          }
        }
      }
    }
    for (NodeId a : candidates) {
      if (in_set[a.index()]) anchors.push_back(a);
    }
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
    // Drop anchors that another anchor made stale (a sunk frontier landing
    // on a node already in the set was deduped by in_set above).
    for (NodeId n : anchors) {
      if (!in_set[n.index()]) continue;
      motion.insert_points.push_back(n);
      // Provenance of the placement decision: the reason chain names the
      // dataflow facts that justify the anchor, and flags the Fig. 7 case —
      // an initialization after a join whose components are individually
      // down-safe but whose safety witnesses differ per interleaving (P3).
      obs::ReasonChain why;
      bool edge_wise =
          n == out.start() || out.node(n).kind == NodeKind::kParEnd;
      if (PARCM_OBS_REMARKS_ON()) {
        why.push_back(obs::RemarkReason::kEarliest);
        why.push_back(obs::RemarkReason::kDownSafe);
        if (edge_wise) why.push_back(obs::RemarkReason::kEdgePlacement);
        if (out.node(n).kind == NodeKind::kParEnd) {
          ParStmtId s = out.node(n).par_stmt;
          if (s.valid() &&
              s.index() < res.safety.up_result.stmt_summary.size() &&
              res.safety.up_result.stmt_summary[s.index()].ff.test(
                  t.index())) {
            why.push_back(obs::RemarkReason::kWitnessDiffers);
          }
        }
      }
      // "Insert at n" = initialize before n's statement runs. The start
      // node has no incoming edges, and inserting *before* a ParEnd would
      // pull the initialization inside the synchronization, so those two
      // anchor on each outgoing edge instead (edge-wise placement keeps the
      // node's branch structure intact for path pairing).
      if (edge_wise) {
        avector<EdgeId> outgoing = out.node(n).out_edges;
        for (EdgeId e : outgoing) {
          NodeId init = out.new_assign(edge_region(out, e), motion.temp,
                                       Rhs(motion.term_value));
          wire_on_edge(out, e, init);
          motion.insert_nodes.push_back(init);
          PARCM_OBS_REMARK(obs::Remark{
              obs::RemarkKind::kInserted, "", n.value(),
              static_cast<std::int64_t>(t.index()),
              term_str,
              "initialize " + out.var_name(motion.temp) +
                  " on the outgoing edge (node n" +
                  std::to_string(init.value()) + ")",
              why, ""});
        }
      } else {
        NodeId init = out.new_assign(out.node(n).region, motion.temp,
                                     Rhs(motion.term_value));
        out.splice_before(init, n);
        motion.insert_nodes.push_back(init);
        PARCM_OBS_REMARK(obs::Remark{
            obs::RemarkKind::kInserted, "", n.value(),
            static_cast<std::int64_t>(t.index()),
            term_str,
            "initialize " + out.var_name(motion.temp) +
                " immediately before this node (node n" +
                std::to_string(init.value()) + ")",
            why, ""});
      }
    }
    for (NodeId n : candidates) in_set[n.index()] = 0;
    for (NodeId n : anchors) in_set[n.index()] = 0;

    for (NodeId n : replace_nodes.of(t)) {
      PARCM_CHECK(out.node(n).kind == NodeKind::kAssign,
                  "replacement at a non-assignment");
      out.node(n).rhs = Rhs(Operand::var(motion.temp));
      motion.replaced.push_back(n);
      if (PARCM_OBS_REMARKS_ON()) {
        int mask =
            (res.safety.upsafe[n.index()].test(t.index()) ? 1 : 0) |
            (res.safety.dnsafe[n.index()].test(t.index()) ? 2 : 0);
        replace_batch.push_back(obs::Remark{
            obs::RemarkKind::kReplaced, "", n.value(),
            static_cast<std::int64_t>(t.index()),
            term_str, replace_msg, replace_why[mask], ""});
      }
    }
    if (!replace_batch.empty()) {
      obs::remarks().emit_batch(replace_batch);
    }

    if (config.variant == SafetyVariant::kRefined && config.privatize_temps &&
        out.num_par_stmts() > 0 &&
        (!motion.insert_nodes.empty() || !motion.replaced.empty())) {
      if (!privatize) privatize.emplace(out);
      privatize_term(out, folds, res.safety, motion, *privatize);
    }

    if (!motion.insert_nodes.empty() || !motion.replaced.empty()) {
      res.terms.push_back(std::move(motion));
    }
  }

  PARCM_OBS_COUNT("motion.runs", 1);
  PARCM_OBS_COUNT("motion.synthetic_nodes", res.synthetic_nodes);
  PARCM_OBS_COUNT("motion.terms_considered", terms.size());
  PARCM_OBS_COUNT("motion.terms_moved", res.terms.size());
  PARCM_OBS_COUNT("motion.insertions", res.num_insertions());
  PARCM_OBS_COUNT("motion.replacements", res.num_replacements());
  PARCM_OBS_COUNT("motion.placement.cone_nodes", cone_nodes);
  return res;
}

}  // namespace parcm
