#include "analyses/constprop.hpp"

#include <deque>

#include "dfa/region_meta.hpp"
#include "obs/metrics.hpp"
#include "semantics/state.hpp"
#include "support/bitvector.hpp"
#include "support/diagnostics.hpp"

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

CpValue eval_operand_cp(const Operand& op, const std::vector<CpValue>& state) {
  if (op.is_const()) return CpValue::constant(op.const_value());
  return state[op.var_id().index()];
}

CpValue eval_rhs_cp(const Rhs& rhs, const std::vector<CpValue>& state) {
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

ConstPropAnalysis analyze_constants(const Graph& g) {
  std::size_t k = g.num_vars();
  ConstPropAnalysis res;
  BitVector contested = contested_vars(g);
  res.contested.assign(k, 0);
  for (std::size_t v = 0; v < k; ++v) res.contested[v] = contested.test(v);
  // Per region, the variables written anywhere in its subtree: the
  // parallel-aware join below asks which component writes a variable.
  const std::size_t words = contested.word_count();
  std::vector<BitVector::Word> region_write =
      region_subtree_rows(g, region_write_rows(g, words), words);

  auto clamp = [&](std::vector<CpValue>& state) {
    for (std::size_t v = 0; v < k; ++v) {
      if (res.contested[v]) state[v] = CpValue::nonconst();
    }
  };

  // Greatest-fixpoint style: start Undef everywhere, seed the start node
  // with the initial state (all variables 0), iterate to stability.
  res.entry.assign(g.num_nodes(), std::vector<CpValue>(k));
  std::vector<std::vector<CpValue>> exit(g.num_nodes(),
                                         std::vector<CpValue>(k));
  std::vector<CpValue> init(k, CpValue::constant(0));
  clamp(init);
  res.entry[g.start().index()] = init;
  exit[g.start().index()] = std::move(init);

  std::deque<NodeId> worklist;
  std::vector<char> queued(g.num_nodes(), 0);
  for (NodeId m : g.succs(g.start())) {
    worklist.push_back(m);
    queued[m.index()] = 1;
  }
  while (!worklist.empty()) {
    NodeId n = worklist.front();
    worklist.pop_front();
    queued[n.index()] = 0;

    std::vector<CpValue> in(k);
    if (g.node(n).kind == NodeKind::kParEnd) {
      // Parallel-aware join: an uncontested variable is written by at most
      // one component; its post-join value is that component's exit value.
      // Meeting every component's exit would drag the other components'
      // stale pass-through values in (they never wrote v).
      for (std::size_t v = 0; v < k; ++v) {
        RegionId writer;
        bool multiple = false;
        const ParStmt& stmt = g.par_stmt(g.node(n).par_stmt);
        for (RegionId comp : stmt.components) {
          if (BitVector::test_bit(
                  region_write.data() + comp.index() * words, v)) {
            multiple = writer.valid();
            writer = comp;
          }
        }
        for (NodeId m : g.preds(n)) {
          if (!multiple && writer.valid() && g.node(m).region != writer) {
            continue;
          }
          in[v] = meet(in[v], exit[m.index()][v]);
        }
      }
    } else {
      for (NodeId m : g.preds(n)) {
        for (std::size_t v = 0; v < k; ++v) {
          in[v] = meet(in[v], exit[m.index()][v]);
        }
      }
    }
    clamp(in);
    std::vector<CpValue> out = in;
    const Node& node = g.node(n);
    if (node.kind == NodeKind::kAssign &&
        !res.contested[node.lhs.index()]) {
      out[node.lhs.index()] = eval_rhs_cp(node.rhs, in);
    }
    clamp(out);
    if (in == res.entry[n.index()] && out == exit[n.index()]) continue;
    res.entry[n.index()] = std::move(in);
    exit[n.index()] = std::move(out);
    for (NodeId m : g.succs(n)) {
      if (m != g.start() && !queued[m.index()]) {
        queued[m.index()] = 1;
        worklist.push_back(m);
      }
    }
  }
  return res;
}

ConstPropResult propagate_constants(const Graph& g) {
  PARCM_OBS_TIMER("analysis.constprop");
  ConstPropResult res{g, 0, 0};
  Graph& out = res.graph;
  ConstPropAnalysis cp = analyze_constants(out);

  auto fold_operand = [&](Operand op, const std::vector<CpValue>& state) {
    if (op.is_var()) {
      CpValue v = state[op.var_id().index()];
      if (v.is_const()) {
        ++res.operands_folded;
        return Operand::constant(v.value);
      }
    }
    return op;
  };

  for (NodeId n : out.all_nodes()) {
    Node& node = out.node(n);
    const std::vector<CpValue>& state = cp.entry[n.index()];
    auto fold_rhs = [&](const Rhs& rhs) {
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
    if (node.kind == NodeKind::kAssign) {
      node.rhs = fold_rhs(node.rhs);
    } else if (node.kind == NodeKind::kTest) {
      // Fold operands only; the branch structure stays (a fully constant
      // condition still selects deterministically at runtime).
      Rhs folded = fold_rhs(*node.cond);
      node.cond = folded;
    }
  }
  PARCM_OBS_COUNT("analysis.constprop.runs", 1);
  PARCM_OBS_COUNT("analysis.constprop.operands_folded", res.operands_folded);
  PARCM_OBS_COUNT("analysis.constprop.rhs_folded", res.rhs_folded);
  return res;
}

}  // namespace parcm
