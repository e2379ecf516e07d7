#include "semantics/enumerator.hpp"

#include <deque>
#include <unordered_set>

#include "ir/regions.hpp"
#include "obs/metrics.hpp"
#include "support/diagnostics.hpp"

namespace parcm {

namespace {

// Variables accessed by node n (lhs, rhs operands, test condition).
void collect_accessed(const Graph& g, NodeId n, std::vector<VarId>* out) {
  const Node& node = g.node(n);
  auto add = [out](VarId v) { out->push_back(v); };
  if (node.kind == NodeKind::kAssign) {
    out->push_back(node.lhs);
    node.rhs.for_each_var(add);
  } else if (node.kind == NodeKind::kTest) {
    node.cond->for_each_var(add);
  }
}

// invisible[n]: executing n commutes with every step of every other thread
// and offers no choice — safe to take alone under partial-order reduction.
std::vector<char> compute_invisible(const Graph& g) {
  InterleavingInfo itlv(g);
  // contested[v]: two potentially-parallel nodes both access v.
  std::vector<char> contested(g.num_vars(), 0);
  std::vector<VarId> mine, theirs;
  for (NodeId n : g.all_nodes()) {
    mine.clear();
    collect_accessed(g, n, &mine);
    if (mine.empty()) continue;
    for (NodeId m : itlv.preds(g, n)) {
      theirs.clear();
      collect_accessed(g, m, &theirs);
      for (VarId v : mine) {
        for (VarId w : theirs) {
          if (v == w) contested[v.index()] = 1;
        }
      }
    }
  }

  std::vector<char> invisible(g.num_nodes(), 0);
  for (NodeId n : g.all_nodes()) {
    const Node& node = g.node(n);
    if (node.kind == NodeKind::kParBegin) {
      invisible[n.index()] = 1;  // deterministic spawn, no data
      continue;
    }
    if (node.kind == NodeKind::kTest || node.kind == NodeKind::kBarrier ||
        node.out_edges.size() > 1) {
      continue;
    }
    if (node.kind == NodeKind::kAssign) {
      mine.clear();
      collect_accessed(g, n, &mine);
      bool clean = true;
      for (VarId v : mine) clean = clean && !contested[v.index()];
      invisible[n.index()] = clean;
    } else {
      invisible[n.index()] = 1;  // skip / synthetic / parend / start / end
    }
  }
  return invisible;
}

// Per-thread progress through a (split) assignment: absent, or the value
// the pending write will store.
using Pending = std::vector<std::optional<std::int64_t>>;  // per region

struct StateKey {
  std::vector<std::uint32_t> config;
  std::vector<std::int64_t> data;
  std::vector<std::int64_t> pending;  // interleaved (flag, value) pairs

  bool operator==(const StateKey&) const = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const {
    std::size_t h = ConfigHash{}(k.config);
    auto mix = [&h](std::int64_t v) {
      h ^= static_cast<std::size_t>(v) + 0x9E3779B97F4A7C15ull + (h << 6) +
           (h >> 2);
    };
    for (std::int64_t v : k.data) mix(v);
    for (std::int64_t v : k.pending) mix(v);
    return h;
  }
};

std::vector<std::int64_t> encode_pending(const Pending& pending) {
  std::vector<std::int64_t> out;
  out.reserve(pending.size() * 2);
  for (const auto& p : pending) {
    out.push_back(p.has_value() ? 1 : 0);
    out.push_back(p.value_or(0));
  }
  return out;
}

struct ExplorationState {
  Config config;
  VarState vars;
  Pending pending;
};

}  // namespace

EnumerationResult enumerate_executions(const Graph& g,
                                       const std::vector<std::string>& observed,
                                       const EnumerationOptions& options) {
  PARCM_OBS_TIMER("semantics.enumerate");
  EnumerationResult res;

  VarState init(g.num_vars());
  for (const auto& [name, value] : options.initial) {
    if (auto v = g.find_var(name)) init.set(*v, value);
  }

  std::vector<VarId> observed_ids;
  observed_ids.reserve(observed.size());
  for (const std::string& name : observed) {
    observed_ids.push_back(g.find_var(name).value_or(VarId()));
  }
  auto project = [&](const VarState& s) {
    std::vector<std::int64_t> out;
    out.reserve(observed_ids.size());
    for (VarId v : observed_ids) out.push_back(v.valid() ? s.get(v) : 0);
    return out;
  };

  auto make_key = [&](const ExplorationState& st) {
    return StateKey{st.config.encode(), st.vars.values(),
                    options.atomic_assignments ? std::vector<std::int64_t>{}
                                               : encode_pending(st.pending)};
  };

  std::vector<char> invisible;
  if (options.partial_order_reduction) invisible = compute_invisible(g);

  std::unordered_set<StateKey, StateKeyHash> seen;
  std::deque<ExplorationState> frontier;
  ExplorationState init_state{Config::initial(g), init,
                              Pending(g.num_regions())};
  seen.insert(make_key(init_state));
  frontier.push_back(std::move(init_state));

  auto visit = [&](ExplorationState next) {
    StateKey key = make_key(next);
    if (seen.contains(key)) return;
    if (seen.size() >= options.max_states) {
      res.exhausted = false;
      return;
    }
    seen.insert(std::move(key));
    frontier.push_back(std::move(next));
  };

  while (!frontier.empty()) {
    ExplorationState st = std::move(frontier.front());
    frontier.pop_front();
    ++res.states_explored;

    if (st.config.terminal()) {
      res.finals.insert(project(st.vars));
      continue;
    }

    // Barrier releases are deterministic, data-free and their threads are
    // blocked for everything else: take them alone, eagerly.
    {
      std::vector<Transition> releases =
          barrier_release_transitions(g, st.config);
      if (!releases.empty()) {
        ExplorationState next = st;
        next.config = apply_transition(g, st.config, releases.front());
        visit(std::move(next));
        continue;
      }
    }

    // Partial-order reduction: if some runnable thread's next step is
    // invisible, explore only that thread.
    RegionId only;
    if (options.partial_order_reduction) {
      for (std::size_t i = 0; i < g.num_regions(); ++i) {
        RegionId r(static_cast<RegionId::underlying>(i));
        if (!st.config.active(r) || !thread_runnable(g, st.config, r)) {
          continue;
        }
        if (invisible[st.config.pc(r).index()]) {
          only = r;
          break;
        }
      }
    }

    bool any = false;
    for (std::size_t i = 0; i < g.num_regions(); ++i) {
      RegionId r(static_cast<RegionId::underlying>(i));
      if (only.valid() && r != only) continue;
      if (!st.config.active(r) || !thread_runnable(g, st.config, r)) continue;
      NodeId n = st.config.pc(r);
      const Node& node = g.node(n);

      // Split semantics, first half: evaluate the rhs into the thread-
      // private pending slot; control does not move yet.
      if (!options.atomic_assignments && node.kind == NodeKind::kAssign &&
          !st.pending[r.index()].has_value()) {
        ExplorationState next = st;
        next.pending[r.index()] = eval_rhs(st.vars, node.rhs);
        visit(std::move(next));
        any = true;
        continue;
      }

      std::vector<Transition> ts;
      append_thread_transitions(g, st.config, r, &st.vars, &ts);
      for (const Transition& t : ts) {
        ExplorationState next = st;
        if (node.kind == NodeKind::kAssign) {
          if (options.atomic_assignments) {
            execute_node(g, n, next.vars);
          } else {
            next.vars.set(node.lhs, *st.pending[r.index()]);
            next.pending[r.index()].reset();
          }
        } else {
          execute_node(g, n, next.vars);
        }
        next.config = apply_transition(g, st.config, t);
        visit(std::move(next));
        any = true;
      }
    }
    PARCM_CHECK(any, "deadlocked configuration during enumeration");
  }

  PARCM_OBS_COUNT("semantics.enum.runs", 1);
  PARCM_OBS_COUNT("semantics.enum.states_explored", res.states_explored);
  PARCM_OBS_COUNT("semantics.enum.finals", res.finals.size());
  if (!res.exhausted) PARCM_OBS_COUNT("semantics.enum.truncated", 1);
  return res;
}

}  // namespace parcm
