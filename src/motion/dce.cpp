#include "motion/dce.hpp"

#include <algorithm>

#include "dfa/direction.hpp"
#include "dfa/region_meta.hpp"
#include "dfa/worklist.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

namespace {

using Word = BitVector::Word;

bool any_bit(const Word* row, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if (row[w] != 0) return true;
  }
  return false;
}

}  // namespace

ParallelLiveness compute_parallel_liveness(const Graph& g,
                                           const BitVector& observed) {
  PARCM_CHECK(observed.size() == g.num_vars(), "observed mask size");
  const std::size_t words = observed.word_count();
  const std::size_t num_nodes = g.num_nodes();

  // use/def rows per node (rhs operands and test conditions are reads) and
  // each region's direct reads.
  std::vector<Word> use(num_nodes * words, 0);
  std::vector<Word> def(num_nodes * words, 0);
  std::vector<Word> region_reads(g.num_regions() * words, 0);
  for (NodeId n : g.all_nodes()) {
    const Node& node = g.node(n);
    Word* use_row = use.data() + n.index() * words;
    auto read = [use_row](VarId v) { BitVector::set_bit(use_row, v.index()); };
    if (node.kind == NodeKind::kAssign) {
      node.rhs.for_each_var(read);
      BitVector::set_bit(def.data() + n.index() * words, node.lhs.index());
    } else if (node.kind == NodeKind::kTest) {
      node.cond->for_each_var(read);
    }
    Word* region_row = region_reads.data() + node.region.index() * words;
    for (std::size_t w = 0; w < words; ++w) region_row[w] |= use_row[w];
  }
  // Interference: row r holds every variable a sibling component of r (at
  // any nesting level) may read while r runs.
  std::vector<Word> sibling_reads = region_sibling_rows(g, region_reads, words);
  auto sibling_row = [&](NodeId n) {
    return sibling_reads.data() + g.node(n).region.index() * words;
  };

  ParallelLiveness res;
  res.words_ = words;
  res.in_.assign(num_nodes * words, 0);
  res.out_.assign(num_nodes * words, 0);

  // Backward view: dir_preds are graph successors, dir_succs graph
  // predecessors. From all-empty sets only nodes that read, sit beside a
  // reading sibling, or are e* (observed) violate their equation.
  DirectedView view(g, Direction::kBackward);
  Worklist worklist;
  worklist.reset(num_nodes, WorklistPolicy::kSparseRpo);
  for (NodeId n : g.all_nodes()) {
    if (n == g.end() || any_bit(use.data() + n.index() * words, words) ||
        any_bit(sibling_row(n), words)) {
      worklist.push(view.rpo_index(n));
    }
  }
  const Word* observed_row = observed.words().data();
  while (!worklist.empty()) {
    NodeId n = view.rpo_node(worklist.pop());
    ++res.relaxations_;
    Word* out = res.out_.data() + n.index() * words;
    const Word* sib = sibling_row(n);
    for (std::size_t w = 0; w < words; ++w) {
      out[w] = n == g.end() ? sib[w] | observed_row[w] : sib[w];
    }
    for (NodeId m : view.dir_preds(n)) {
      const Word* succ_in = res.in_.data() + m.index() * words;
      for (std::size_t w = 0; w < words; ++w) out[w] |= succ_in[w];
    }
    Word* in = res.in_.data() + n.index() * words;
    const Word* use_row = use.data() + n.index() * words;
    const Word* def_row = def.data() + n.index() * words;
    bool changed = false;
    for (std::size_t w = 0; w < words; ++w) {
      Word next = use_row[w] | (out[w] & ~def_row[w]);
      changed |= next != in[w];
      in[w] = next;
    }
    if (!changed) continue;
    for (NodeId m : view.dir_succs(n)) worklist.push(view.rpo_index(m));
  }
  PARCM_OBS_COUNT("motion.liveness.relaxations", res.relaxations_);
  return res;
}

bool LivenessQuery::reads_x(const Node& node) const {
  if (node.kind == NodeKind::kAssign) return node.rhs.uses_var(x_);
  if (node.kind == NodeKind::kTest) return node.cond->uses_var(x_);
  return false;
}

void LivenessQuery::reset(const Graph& g, VarId x, bool observed) {
  g_ = &g;
  x_ = x;
  observed_ = observed;
  if (visited_.size() < g.num_nodes()) visited_.resize(g.num_nodes(), 0);
  sibling_reads_.clear();
  if (g.num_regions() == 1) return;  // no parallel statement, no siblings
  // The root has no siblings, so its reads never reach a sibling row; a
  // component's scan stops at its first read of x.
  region_reads_.assign(g.num_regions(), 0);
  for (std::size_t r = 1; r < g.num_regions(); ++r) {
    for (NodeId n : g.region(RegionId(static_cast<RegionId::underlying>(r)))
                        .nodes) {
      if (reads_x(g.node(n))) {
        region_reads_[r] = 1;
        break;
      }
    }
  }
  sibling_reads_ = region_sibling_rows(g, region_reads_, 1);
}

bool LivenessQuery::live_in(NodeId n) {
  const Graph& g = *g_;
  if (++epoch_ == 0) {  // wrapped: stale marks could alias the new epoch
    std::fill(visited_.begin(), visited_.end(), 0);
    epoch_ = 1;
  }
  stack_.clear();
  stack_.push_back(n);
  visited_[n.index()] = epoch_;
  while (!stack_.empty()) {
    NodeId cur = stack_.back();
    stack_.pop_back();
    const Node& node = g.node(cur);
    // live_in = use | (live_out & ~def), live_out = [e*] observed |
    // sibling reads | the successors' live_in.
    if (reads_x(node)) return true;
    if (node.kind == NodeKind::kAssign && node.lhs == x_) continue;
    if (cur == g.end() && observed_) return true;
    if (!sibling_reads_.empty() && sibling_reads_[node.region.index()] != 0) {
      return true;
    }
    for (EdgeId e : node.out_edges) {
      NodeId m = g.edge(e).to;
      if (visited_[m.index()] == epoch_) continue;
      visited_[m.index()] = epoch_;
      stack_.push_back(m);
    }
  }
  return false;
}

DceResult eliminate_dead_assignments(const Graph& g,
                                     const DceOptions& options) {
  PARCM_OBS_TIMER("motion.dce");
  PARCM_OBS_REMARK_PASS("dce");
  DceResult res{g, {}, 0};
  Graph& out = res.graph;

  BitVector observed(out.num_vars(), options.observed.empty());
  for (const std::string& name : options.observed) {
    if (auto v = out.find_var(name)) observed.set(v->index());
  }

  bool changed = true;
  while (changed) {
    changed = false;
    ++res.rounds;
    ParallelLiveness live = compute_parallel_liveness(out, observed);
    for (NodeId n : out.all_nodes()) {
      Node& node = out.node(n);
      if (node.kind != NodeKind::kAssign) continue;
      if (live.live_out(n, node.lhs)) continue;
      // Dead: no interleaving reads the value before it is overwritten.
      PARCM_OBS_REMARK(obs::Remark{
          obs::RemarkKind::kReplaced, "", n.value(), -1, "",
          "dead assignment to " + out.var_name(node.lhs) +
              " eliminated: no interleaving reads the value before it is "
              "overwritten",
          {obs::RemarkReason::kDeadAssignment},
          ""});
      node.kind = NodeKind::kSkip;
      node.rhs = Rhs();
      node.lhs = VarId();
      res.eliminated.push_back(n);
      changed = true;
    }
  }
  PARCM_OBS_COUNT("motion.dce.runs", 1);
  PARCM_OBS_COUNT("motion.dce.rounds", res.rounds);
  PARCM_OBS_COUNT("motion.dce.eliminated", res.eliminated.size());
  return res;
}

}  // namespace parcm
