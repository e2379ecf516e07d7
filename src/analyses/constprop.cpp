#include "analyses/constprop.hpp"

#include <algorithm>

#include "dfa/direction.hpp"
#include "dfa/region_meta.hpp"
#include "dfa/worklist.hpp"
#include "obs/metrics.hpp"
#include "semantics/state.hpp"

namespace parcm {

CpValue meet(const CpValue& a, const CpValue& b) {
  if (a.kind == CpValue::Kind::kUndef) return b;
  if (b.kind == CpValue::Kind::kUndef) return a;
  if (a.kind == CpValue::Kind::kNonConst || b.kind == CpValue::Kind::kNonConst) {
    return CpValue::nonconst();
  }
  return a.value == b.value ? a : CpValue::nonconst();
}

namespace {

CpValue eval_operand_cp(const Operand& op, const CpValue* state) {
  if (op.is_const()) return CpValue::constant(op.const_value());
  return state[op.var_id().index()];
}

CpValue eval_rhs_cp(const Rhs& rhs, const CpValue* state) {
  if (rhs.is_trivial()) return eval_operand_cp(rhs.trivial(), state);
  CpValue a = eval_operand_cp(rhs.term().lhs, state);
  CpValue b = eval_operand_cp(rhs.term().rhs, state);
  if (a.kind == CpValue::Kind::kUndef || b.kind == CpValue::Kind::kUndef) {
    return CpValue::undef();
  }
  if (!a.is_const() || !b.is_const()) return CpValue::nonconst();
  // Reuse the interpreter's arithmetic so folding agrees with execution.
  VarState dummy(0);
  return CpValue::constant(eval_rhs(
      dummy, Rhs(Term{rhs.term().op, Operand::constant(a.value),
                      Operand::constant(b.value)})));
}

}  // namespace

void ConstPropAnalysis::join(NodeId n, CpValue* in) const {
  const Graph& g = *g_;
  const std::size_t k = num_vars_;
  const Node& node = g.node(n);
  if (n == g.start()) {
    // The interpreter's initial state: every variable 0.
    std::fill(in, in + k, CpValue::constant(0));
  } else if (node.kind == NodeKind::kParEnd) {
    // Parallel-aware join: an uncontested variable is written by at most
    // one component; its post-join value is that component's exit value.
    // Meeting every component's exit would drag the other components'
    // stale pass-through values in (they never wrote v).
    const ParStmt& stmt = g.par_stmt(node.par_stmt);
    for (std::size_t v = 0; v < k; ++v) {
      RegionId writer;
      bool multiple = false;
      for (RegionId comp : stmt.components) {
        if (BitVector::test_bit(region_write_.data() + comp.index() * words_,
                                v)) {
          multiple = writer.valid();
          writer = comp;
        }
      }
      CpValue value;
      for (EdgeId e : node.in_edges) {
        NodeId m = g.edge(e).from;
        if (!multiple && writer.valid() && g.node(m).region != writer) {
          continue;
        }
        value = meet(value, exit_row(m)[v]);
      }
      in[v] = value;
    }
  } else if (node.in_edges.empty()) {
    std::fill(in, in + k, CpValue::undef());
  } else {
    // meet(Undef, c) == c, so the first predecessor's exit is copied.
    const CpValue* first = exit_row(g.edge(node.in_edges[0]).from);
    std::copy(first, first + k, in);
    for (std::size_t i = 1; i < node.in_edges.size(); ++i) {
      const CpValue* exit = exit_row(g.edge(node.in_edges[i]).from);
      for (std::size_t v = 0; v < k; ++v) in[v] = meet(in[v], exit[v]);
    }
  }
  for (std::size_t v = 0; v < k; ++v) {
    if (contested[v]) in[v] = CpValue::nonconst();
  }
}

void ConstPropAnalysis::entry(NodeId n, std::vector<CpValue>& state) const {
  state.resize(num_vars_);
  join(n, state.data());
}

ConstPropAnalysis analyze_constants(const Graph& g) {
  const std::size_t k = g.num_vars();
  ConstPropAnalysis res;
  res.g_ = &g;
  res.num_vars_ = k;
  BitVector contested = contested_vars(g);
  res.contested.assign(k, 0);
  for (std::size_t v = 0; v < k; ++v) res.contested[v] = contested.test(v);
  res.words_ = contested.word_count();
  res.region_write_ = region_subtree_rows(
      g, region_write_rows(g, res.words_), res.words_);

  // Greatest-fixpoint style: every exit starts Undef, the start node's is
  // the initial state, and the start node's successors are seeded.
  res.exit_.assign(g.num_nodes(), std::vector<CpValue>(k));
  res.join(g.start(), res.exit_[g.start().index()].data());
  DirectedView view(g, Direction::kForward);
  Worklist worklist;
  worklist.reset(g.num_nodes(), WorklistPolicy::kSparseRpo);
  for (NodeId m : view.dir_succs(g.start())) worklist.push(view.rpo_index(m));
  std::vector<CpValue> out(k);
  while (!worklist.empty()) {
    NodeId n = view.rpo_node(worklist.pop());
    ++res.relaxations_;
    res.join(n, out.data());
    const Node& node = g.node(n);
    if (node.kind == NodeKind::kAssign && !res.contested[node.lhs.index()]) {
      out[node.lhs.index()] = eval_rhs_cp(node.rhs, out.data());
    }
    std::vector<CpValue>& exit = res.exit_[n.index()];
    if (out == exit) continue;
    exit = out;
    for (NodeId m : view.dir_succs(n)) {
      if (m != g.start()) worklist.push(view.rpo_index(m));
    }
  }
  PARCM_OBS_COUNT("analysis.constprop.relaxations", res.relaxations_);
  return res;
}

ConstPropResult propagate_constants(const Graph& g) {
  PARCM_OBS_TIMER("analysis.constprop");
  ConstPropResult res{g, 0, 0};
  Graph& out = res.graph;
  ConstPropAnalysis cp = analyze_constants(out);

  auto fold_operand = [&](Operand op, const CpValue* state) {
    if (op.is_var()) {
      CpValue v = state[op.var_id().index()];
      if (v.is_const()) {
        ++res.operands_folded;
        return Operand::constant(v.value);
      }
    }
    return op;
  };
  auto fold_rhs = [&](const Rhs& rhs, const CpValue* state) {
    if (rhs.is_trivial()) return Rhs(fold_operand(rhs.trivial(), state));
    CpValue whole = eval_rhs_cp(rhs, state);
    if (whole.is_const()) {
      ++res.rhs_folded;
      return Rhs(Operand::constant(whole.value));
    }
    Term t = rhs.term();
    t.lhs = fold_operand(t.lhs, state);
    t.rhs = fold_operand(t.rhs, state);
    return Rhs(t);
  };

  // Folding rewrites right-hand sides only, so the edges and regions the
  // entry joins read stay as the solve saw them.
  const Graph& read = out;
  std::vector<CpValue> state;
  for (NodeId n : out.all_nodes()) {
    NodeKind kind = read.node(n).kind;
    if (kind != NodeKind::kAssign && kind != NodeKind::kTest) continue;
    cp.entry(n, state);
    Node& node = out.node(n);
    if (kind == NodeKind::kAssign) {
      node.rhs = fold_rhs(node.rhs, state.data());
    } else {
      // Fold operands only; the branch structure stays (a fully constant
      // condition still selects deterministically at runtime).
      node.cond = fold_rhs(*node.cond, state.data());
    }
  }
  PARCM_OBS_COUNT("analysis.constprop.runs", 1);
  PARCM_OBS_COUNT("analysis.constprop.operands_folded", res.operands_folded);
  PARCM_OBS_COUNT("analysis.constprop.rhs_folded", res.rhs_folded);
  return res;
}

}  // namespace parcm
