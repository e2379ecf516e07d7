#include "motion/mustuse.hpp"

#include <algorithm>

namespace parcm {

void MustUseCone::solve(const MustUseProblem& problem, NodeId anchor) {
  const Graph& g = *problem.graph;
  if (in_cone_.size() < g.num_nodes()) {
    in_cone_.resize(g.num_nodes(), 0);
    value_.resize(g.num_nodes(), 0);
    queued_.resize(g.num_nodes(), 0);
  }
  if (++epoch_ == 0) {  // wrapped: stale marks could alias the new epoch
    for (auto* marks : {&in_cone_, &value_, &queued_}) {
      std::fill(marks->begin(), marks->end(), 0);
    }
    epoch_ = 1;
  }

  nodes_.clear();
  auto add = [&](NodeId n) {
    if (in_cone_[n.index()] == epoch_) return;
    in_cone_[n.index()] = epoch_;
    nodes_.push_back(n);
  };
  auto add_par_end = [&](NodeId begin) {
    add(g.par_stmt(g.node(begin).par_stmt).end);
  };
  for (EdgeId e : g.node(anchor).out_edges) add(g.edge(e).to);
  if (g.node(anchor).kind == NodeKind::kParBegin) add_par_end(anchor);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeId n = nodes_[i];
    if (g.node(n).kind == NodeKind::kParBegin) add_par_end(n);
    if (!problem.is_dependent(n)) continue;
    for (EdgeId e : g.node(n).out_edges) add(g.edge(e).to);
  }

  // Least fixpoint from the replacements backward; predecessors outside
  // the cone are not asked for.
  worklist_.clear();
  auto enqueue_preds = [&](NodeId n) {
    for (EdgeId e : g.node(n).in_edges) {
      NodeId m = g.edge(e).from;
      if (in_cone_[m.index()] != epoch_ || queued_[m.index()] == epoch_) {
        continue;
      }
      queued_[m.index()] = epoch_;
      worklist_.push_back(m);
    }
  };
  for (NodeId n : nodes_) {
    if (!problem.is_replace(n)) continue;
    value_[n.index()] = epoch_;
    enqueue_preds(n);
  }
  while (!worklist_.empty()) {
    NodeId n = worklist_.back();
    worklist_.pop_back();
    queued_[n.index()] = 0;
    if (value_[n.index()] == epoch_ || !problem.is_dependent(n)) continue;
    bool all = true;
    for (EdgeId e : g.node(n).out_edges) {
      all = all && value_[g.edge(e).to.index()] == epoch_;
    }
    if (!all) continue;
    value_[n.index()] = epoch_;
    enqueue_preds(n);
  }
}

}  // namespace parcm
