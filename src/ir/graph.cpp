#include "ir/graph.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace parcm {

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kStart:
      return "start";
    case NodeKind::kEnd:
      return "end";
    case NodeKind::kSkip:
      return "skip";
    case NodeKind::kSynthetic:
      return "synthetic";
    case NodeKind::kAssign:
      return "assign";
    case NodeKind::kTest:
      return "test";
    case NodeKind::kParBegin:
      return "parbegin";
    case NodeKind::kParEnd:
      return "parend";
    case NodeKind::kBarrier:
      return "barrier";
  }
  PARCM_CHECK(false, "unknown NodeKind");
}

Graph::Graph() {
  regions_.push_back(Region{RegionId(0), ParStmtId(), {}, {}});
  start_ = new_node(NodeKind::kStart, root_region());
  end_ = new_node(NodeKind::kEnd, root_region());
}

VarId Graph::intern_var(const std::string& name) {
  auto it = var_index_.find(name);
  if (it != var_index_.end()) return it->second;
  VarId v(static_cast<VarId::underlying>(var_names_.size()));
  var_names_.push_back(name);
  var_index_.emplace(name, v);
  return v;
}

std::optional<VarId> Graph::find_var(const std::string& name) const {
  auto it = var_index_.find(name);
  if (it == var_index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Graph::var_name(VarId v) const {
  PARCM_CHECK(v.valid() && v.index() < var_names_.size(), "bad VarId");
  return var_names_[v.index()];
}

NodeId Graph::new_node(NodeKind kind, RegionId region) {
  PARCM_CHECK(region.valid() && region.index() < regions_.size(),
              "bad RegionId");
  NodeId n(static_cast<NodeId::underlying>(nodes_.size()));
  Node node;
  node.kind = kind;
  node.region = region;
  nodes_.push_back(std::move(node));
  regions_[region.index()].nodes.push_back(n);
  return n;
}

NodeId Graph::new_assign(RegionId region, VarId lhs, Rhs rhs) {
  NodeId n = new_node(NodeKind::kAssign, region);
  nodes_[n.index()].lhs = lhs;
  nodes_[n.index()].rhs = std::move(rhs);
  return n;
}

NodeId Graph::new_test(RegionId region, Rhs cond) {
  NodeId n = new_node(NodeKind::kTest, region);
  nodes_[n.index()].cond = std::move(cond);
  return n;
}

EdgeId Graph::add_edge(NodeId from, NodeId to) {
  EdgeId e(static_cast<EdgeId::underlying>(edges_.size()));
  edges_.push_back(Edge{from, to, true});
  nodes_[from.index()].out_edges.push_back(e);
  nodes_[to.index()].in_edges.push_back(e);
  return e;
}

void Graph::remove_edge(EdgeId e) {
  Edge& ed = edges_[e.index()];
  PARCM_CHECK(ed.valid, "edge removed twice");
  ed.valid = false;
  auto erase_from = [e](avector<EdgeId>& list) {
    list.erase(std::remove(list.begin(), list.end(), e), list.end());
  };
  erase_from(nodes_[ed.from.index()].out_edges);
  erase_from(nodes_[ed.to.index()].in_edges);
}

avector<NodeId> Graph::preds(NodeId n) const {
  avector<NodeId> out;
  out.reserve(nodes_[n.index()].in_edges.size());
  for (EdgeId e : nodes_[n.index()].in_edges) out.push_back(edges_[e.index()].from);
  return out;
}

avector<NodeId> Graph::succs(NodeId n) const {
  avector<NodeId> out;
  out.reserve(nodes_[n.index()].out_edges.size());
  for (EdgeId e : nodes_[n.index()].out_edges) out.push_back(edges_[e.index()].to);
  return out;
}

std::size_t Graph::in_degree(NodeId n) const {
  return nodes_[n.index()].in_edges.size();
}

std::size_t Graph::out_degree(NodeId n) const {
  return nodes_[n.index()].out_edges.size();
}

ParStmtId Graph::add_par_stmt(RegionId parent) {
  ParStmtId s(static_cast<ParStmtId::underlying>(par_stmts_.size()));
  NodeId begin = new_node(NodeKind::kParBegin, parent);
  NodeId end = new_node(NodeKind::kParEnd, parent);
  nodes_[begin.index()].par_stmt = s;
  nodes_[end.index()].par_stmt = s;
  par_stmts_.push_back(ParStmt{s, begin, end, parent, {}});
  regions_[parent.index()].child_stmts.push_back(s);
  return s;
}

RegionId Graph::add_component(ParStmtId stmt) {
  RegionId r(static_cast<RegionId::underlying>(regions_.size()));
  regions_.push_back(Region{r, stmt, {}, {}});
  par_stmts_[stmt.index()].components.push_back(r);
  return r;
}

ParStmtId Graph::pfg(NodeId n) const {
  return regions_[nodes_[n.index()].region.index()].owner;
}

std::vector<Graph::Enclosing> Graph::enclosing_stmts(NodeId n) const {
  std::vector<Enclosing> out;
  RegionId r = nodes_[n.index()].region;
  while (regions_[r.index()].owner.valid()) {
    ParStmtId s = regions_[r.index()].owner;
    out.push_back(Enclosing{s, r});
    r = par_stmts_[s.index()].parent_region;
  }
  return out;
}

avector<NodeId> Graph::nodes_in_region_recursive(RegionId r) const {
  avector<NodeId> out;
  avector<RegionId> stack{r};
  while (!stack.empty()) {
    RegionId cur = stack.back();
    stack.pop_back();
    const Region& reg = regions_[cur.index()];
    out.insert(out.end(), reg.nodes.begin(), reg.nodes.end());
    for (ParStmtId s : reg.child_stmts) {
      for (RegionId comp : par_stmts_[s.index()].components) {
        stack.push_back(comp);
      }
    }
  }
  return out;
}

NodeId Graph::component_entry(RegionId r) const {
  const Region& reg = regions_[r.index()];
  PARCM_CHECK(reg.owner.valid(), "component_entry of non-component region");
  NodeId begin = par_stmts_[reg.owner.index()].begin;
  NodeId entry;
  for (EdgeId e : nodes_[begin.index()].out_edges) {
    NodeId t = edges_[e.index()].to;
    if (nodes_[t.index()].region == r) {
      PARCM_CHECK(!entry.valid() || entry == t,
                  "component has multiple entry nodes");
      entry = t;
    }
  }
  PARCM_CHECK(entry.valid(), "component has no entry node");
  return entry;
}

std::vector<NodeId> Graph::component_exits(RegionId r) const {
  const Region& reg = regions_[r.index()];
  PARCM_CHECK(reg.owner.valid(), "component_exits of non-component region");
  NodeId end = par_stmts_[reg.owner.index()].end;
  std::vector<NodeId> out;
  for (EdgeId e : nodes_[end.index()].in_edges) {
    NodeId f = edges_[e.index()].from;
    if (nodes_[f.index()].region == r) out.push_back(f);
  }
  return out;
}

int Graph::region_depth(RegionId r) const {
  int depth = 0;
  while (regions_[r.index()].owner.valid()) {
    ++depth;
    r = par_stmts_[regions_[r.index()].owner.index()].parent_region;
  }
  return depth;
}

void Graph::splice_before(NodeId n, NodeId before) {
  Node& fresh = nodes_[n.index()];
  PARCM_CHECK(fresh.in_edges.empty() && fresh.out_edges.empty(),
              "splice_before requires a fresh node");
  PARCM_CHECK(fresh.region == nodes_[before.index()].region,
              "splice_before across regions");
  // Redirect incoming edges of `before` to n.
  avector<EdgeId> incoming = nodes_[before.index()].in_edges;
  for (EdgeId e : incoming) {
    edges_[e.index()].to = n;
    fresh.in_edges.push_back(e);
  }
  nodes_[before.index()].in_edges.clear();
  add_edge(n, before);
}

void Graph::splice_after(NodeId n, NodeId after) {
  Node& fresh = nodes_[n.index()];
  PARCM_CHECK(fresh.in_edges.empty() && fresh.out_edges.empty(),
              "splice_after requires a fresh node");
  PARCM_CHECK(fresh.region == nodes_[after.index()].region,
              "splice_after across regions");
  avector<EdgeId> outgoing = nodes_[after.index()].out_edges;
  for (EdgeId e : outgoing) {
    edges_[e.index()].from = n;
    fresh.out_edges.push_back(e);
  }
  nodes_[after.index()].out_edges.clear();
  add_edge(after, n);
}

}  // namespace parcm
