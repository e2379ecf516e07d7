#include "motion/sinking.hpp"

#include <algorithm>

#include "dfa/region_meta.hpp"
#include "ir/printer.hpp"
#include "ir/transform_utils.hpp"
#include "motion/dce.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "support/bitvector.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

namespace {

class Sinker {
 public:
  explicit Sinker(Graph& g) : g_(g) {}

  // Attempts to sink assignment node a; returns true if applied.
  bool try_sink(NodeId a, std::size_t* placed, std::size_t* dropped) {
    // Reads go through a const view: the mutable accessors bump the graph
    // version.
    const Graph& g = g_;
    const Node& node = g.node(a);
    PARCM_CHECK(node.kind == NodeKind::kAssign, "sinking a non-assignment");
    x_ = node.lhs;
    rhs_ = node.rhs;

    // Clean(n): the assignment commutes with n and may move past it.
    auto clean = [&](NodeId n) {
      const Node& m = g.node(n);
      if (m.kind == NodeKind::kParBegin || m.kind == NodeKind::kParEnd ||
          m.kind == NodeKind::kBarrier || m.kind == NodeKind::kEnd) {
        return false;
      }
      if (m.kind == NodeKind::kAssign) {
        if (m.lhs == x_) return false;            // redefinition
        if (m.rhs.uses_var(x_)) return false;     // use of x
        if (rhs_.uses_var(m.lhs)) return false;   // operand modified
        return true;
      }
      if (m.kind == NodeKind::kTest) return !m.cond->uses_var(x_);
      return true;  // skip / synthetic / start
    };

    // D(n), the greatest fixpoint of
    //   D(n) = n != a and every predecessor m is a or satisfies D(m) and
    //          Clean(m),
    // lies inside the nodes reachable from a through clean nodes: by
    // induction on the shortest path from a, a D-node's predecessor on that
    // path is a or a clean D-node. Starting from that region (every node
    // in it D) and retracting violated nodes reaches the same greatest
    // fixpoint as a sweep over the whole graph, touching only the region.
    std::size_t num_nodes = g.num_nodes();
    d_.assign(num_nodes, 0);
    clean_.assign(num_nodes, 0);
    region_.clear();
    auto enter_successors = [&](NodeId n) {
      for (EdgeId e : g.node(n).out_edges) {
        NodeId t = g.edge(e).to;
        if (t == a || d_[t.index()]) continue;
        d_[t.index()] = 1;
        clean_[t.index()] = clean(t);
        region_.push_back(t);
      }
    };
    enter_successors(a);
    for (std::size_t i = 0; i < region_.size(); ++i) {
      if (clean_[region_[i].index()]) enter_successors(region_[i]);
    }
    pending_.assign(region_.begin(), region_.end());
    while (!pending_.empty()) {
      NodeId n = pending_.back();
      pending_.pop_back();
      if (!d_[n.index()]) continue;
      bool delayed = true;
      for (EdgeId e : g.node(n).in_edges) {
        NodeId m = g.edge(e).from;
        if (m != a && !(d_[m.index()] && clean_[m.index()])) {
          delayed = false;
          break;
        }
      }
      if (delayed) continue;
      d_[n.index()] = 0;
      if (!clean_[n.index()]) continue;  // successors never relied on n
      for (EdgeId e : g.node(n).out_edges) {
        NodeId t = g.edge(e).to;
        if (d_[t.index()]) pending_.push_back(t);
      }
    }

    // Placements: (a) before blocked D-nodes, (b) on edges leaving the
    // D-region from clean D-nodes (or from a itself), both in node order.
    region_.push_back(a);
    std::sort(region_.begin(), region_.end());
    std::vector<NodeId> before_nodes;
    std::vector<EdgeId> on_edges;
    for (NodeId n : region_) {
      bool in_d = d_[n.index()] != 0;
      if (in_d && !clean_[n.index()]) before_nodes.push_back(n);
      bool source_ok = n == a || (in_d && clean_[n.index()]);
      if (!source_ok) continue;
      for (EdgeId e : g.node(n).out_edges) {
        NodeId t = g.edge(e).to;
        if (!d_[t.index()]) on_edges.push_back(e);
      }
    }

    // x's liveness decides which copies are dead (every variable is
    // observable at e*: only definite overwrites drop).
    live_.reset(g, x_, /*observed=*/true);
    std::size_t new_placed = 0, new_dropped = 0;
    std::vector<NodeId> live_before;
    std::vector<EdgeId> live_edges;
    for (NodeId n : before_nodes) {
      if (live_.live_in(n)) {
        live_before.push_back(n);
        ++new_placed;
      } else {
        ++new_dropped;
      }
    }
    for (EdgeId e : on_edges) {
      if (live_.live_in(g.edge(e).to)) {
        live_edges.push_back(e);
        ++new_placed;
      } else {
        ++new_dropped;
      }
    }

    // Profitability: only transform when some copy is dropped; otherwise
    // the program merely churns.
    if (new_dropped == 0) return false;

    for (NodeId n : live_before) {
      NodeId copy = g_.new_assign(g.node(n).region, x_, rhs_);
      g_.splice_before(copy, n);
    }
    for (EdgeId e : live_edges) {
      NodeId copy = g_.new_assign(edge_region(g_, e), x_, rhs_);
      wire_on_edge(g_, e, copy);
    }
    // The original becomes a skip.
    Node& orig = g_.node(a);
    orig.kind = NodeKind::kSkip;
    orig.lhs = VarId();
    orig.rhs = Rhs();
    *placed += new_placed;
    *dropped += new_dropped;
    return true;
  }

 private:
  Graph& g_;
  VarId x_;
  Rhs rhs_;
  // Per-candidate scratch, reused: D and Clean flags by node, the region
  // reachable through clean nodes, the retraction worklist, and x's
  // liveness queries.
  std::vector<char> d_;
  std::vector<char> clean_;
  std::vector<NodeId> region_;
  std::vector<NodeId> pending_;
  LivenessQuery live_;
};

}  // namespace

SinkingResult sink_partially_dead_assignments(const Graph& g) {
  PARCM_OBS_TIMER("motion.sinking");
  PARCM_OBS_REMARK_PASS("sinking");
  SinkingResult res{g, {}, 0, 0};
  Graph& out = res.graph;

  BitVector contested = contested_vars(out);
  std::vector<NodeId> candidates;
  for (NodeId n : out.all_nodes()) {
    const Node& node = out.node(n);
    if (node.kind != NodeKind::kAssign) continue;
    bool ok = !contested.test(node.lhs.index());
    node.rhs.for_each_var(
        [&](VarId v) { ok = ok && !contested.test(v.index()); });
    if (ok) {
      candidates.push_back(n);
    } else {
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kBlocked, "", n.value(), -1, "",
          "assignment touches a variable with a potentially-parallel "
          "(write, access) pair: moving it could change an interleaving",
          {obs::RemarkReason::kContested},
          statement_to_string(out, n)});
    }
  }

  Sinker sinker(out);
  for (NodeId a : candidates) {
    if (out.node(a).kind != NodeKind::kAssign) continue;  // already sunk
    std::size_t placed_before = res.copies_placed;
    std::size_t dropped_before = res.copies_dropped;
    if (sinker.try_sink(a, &res.copies_placed, &res.copies_dropped)) {
      res.sunk.push_back(a);
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kReplaced, "", a.value(), -1, "",
          "partially dead assignment sunk: " +
              std::to_string(res.copies_placed - placed_before) +
              " cop(ies) placed, " +
              std::to_string(res.copies_dropped - dropped_before) +
              " dropped",
          {obs::RemarkReason::kPartiallyDead},
          ""});
    } else if (PARCM_OBS_REMARKS_ON()) {
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kSkipped, "", a.value(), -1, "",
          "assignment is live on every continuation: sinking would only "
          "churn the program",
          {obs::RemarkReason::kUnprofitable},
          statement_to_string(out, a)});
    }
  }
  PARCM_OBS_COUNT("motion.sinking.runs", 1);
  PARCM_OBS_COUNT("motion.sinking.sunk", res.sunk.size());
  PARCM_OBS_COUNT("motion.sinking.copies_placed", res.copies_placed);
  PARCM_OBS_COUNT("motion.sinking.copies_dropped", res.copies_dropped);
  return res;
}

}  // namespace parcm
