// The parallel flow graph G* = (N*, E*, s*, e*) of Knoop/Steffen/Vollmer.
//
// Structure mirrors the paper: nodes represent statements, edges the
// nondeterministic branching structure; a parallel statement is a subgraph
// encapsulated by a ParBegin and a ParEnd node whose component subgraphs run
// interleaved on shared memory. Components are modelled as *regions*: every
// node belongs to exactly one region, the root region holds top-level code
// (and the ParBegin/ParEnd nodes of top-level parallel statements), and each
// parallel statement owns one region per component. No edge crosses a region
// boundary except ParBegin -> component entry and component exit -> ParEnd.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/expr.hpp"
#include "support/arena.hpp"
#include "support/ids.hpp"

namespace parcm {

enum class NodeKind : std::uint8_t {
  kStart,      // s*: unique, skip, no incoming edges
  kEnd,        // e*: unique, skip, no outgoing edges
  kSkip,       // empty statement
  kSynthetic,  // skip inserted by join-edge splitting or code motion
  kAssign,     // x := rhs
  kTest,       // deterministic 2-way branch on a condition (analysis: skip)
  kParBegin,   // entry of a parallel statement (skip)
  kParEnd,     // synchronizing exit of a parallel statement (skip)
  kBarrier,    // collective barrier of the innermost parallel statement
};

const char* node_kind_name(NodeKind kind);

// Lazy 0..n-1 id range: all_nodes() used to materialize a vector per call,
// which shows up as allocator traffic in every analysis loop.
class NodeRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = NodeId;

    explicit iterator(std::size_t i) : i_(i) {}
    NodeId operator*() const {
      return NodeId(static_cast<NodeId::underlying>(i_));
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    std::size_t i_;
  };

  explicit NodeRange(std::size_t n) : n_(n) {}
  iterator begin() const { return iterator(0); }
  iterator end() const { return iterator(n_); }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_;
};

struct Node {
  NodeKind kind = NodeKind::kSkip;
  RegionId region;

  // kAssign only.
  VarId lhs;
  Rhs rhs;

  // kTest only; out_edges[0] is the true branch, out_edges[1] the false one.
  std::optional<Rhs> cond;

  // kParBegin / kParEnd only: the parallel statement this node delimits.
  ParStmtId par_stmt;

  // Free-form label used by figure reconstructions ("n3" etc.) and printers.
  std::string label;

  avector<EdgeId> in_edges;
  avector<EdgeId> out_edges;
};

struct Edge {
  NodeId from;
  NodeId to;
  bool valid = true;
};

struct Region {
  RegionId id;
  // Parallel statement owning this region as a component; invalid for root.
  ParStmtId owner;
  avector<NodeId> nodes;
  // Parallel statements whose ParBegin/ParEnd live directly in this region.
  avector<ParStmtId> child_stmts;
};

struct ParStmt {
  ParStmtId id;
  NodeId begin;
  NodeId end;
  RegionId parent_region;
  avector<RegionId> components;
};

class Graph {
 public:
  // Creates the root region plus start and end nodes (unconnected).
  Graph();

  // --- variables -----------------------------------------------------------
  VarId intern_var(const std::string& name);
  std::optional<VarId> find_var(const std::string& name) const;
  const std::string& var_name(VarId v) const;
  std::size_t num_vars() const { return var_names_.size(); }

  // --- nodes and edges -----------------------------------------------------
  NodeId new_node(NodeKind kind, RegionId region);
  NodeId new_assign(RegionId region, VarId lhs, Rhs rhs);
  NodeId new_test(RegionId region, Rhs cond);

  EdgeId add_edge(NodeId from, NodeId to);
  void remove_edge(EdgeId e);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges_total() const { return edges_.size(); }
  Node& node(NodeId n) { return nodes_[n.index()]; }
  const Node& node(NodeId n) const { return nodes_[n.index()]; }
  Edge& edge(EdgeId e) { return edges_[e.index()]; }
  const Edge& edge(EdgeId e) const { return edges_[e.index()]; }

  NodeId start() const { return start_; }
  NodeId end() const { return end_; }

  avector<NodeId> preds(NodeId n) const;
  avector<NodeId> succs(NodeId n) const;
  std::size_t in_degree(NodeId n) const;
  std::size_t out_degree(NodeId n) const;

  // All node ids, in creation order.
  NodeRange all_nodes() const { return NodeRange(nodes_.size()); }

  // --- regions and parallel statements --------------------------------------
  RegionId root_region() const { return RegionId(0); }
  std::size_t num_regions() const { return regions_.size(); }
  std::size_t num_par_stmts() const { return par_stmts_.size(); }
  const Region& region(RegionId r) const { return regions_[r.index()]; }
  const ParStmt& par_stmt(ParStmtId s) const { return par_stmts_[s.index()]; }

  // Creates the statement with its ParBegin/ParEnd nodes in `parent`.
  ParStmtId add_par_stmt(RegionId parent);
  RegionId add_component(ParStmtId stmt);

  // Smallest parallel statement containing n, i.e. the paper's pfg(n);
  // invalid id if n is top-level. ParBegin/ParEnd nodes of a statement S sit
  // in S's parent region, so pfg(begin(S)) is *not* S.
  ParStmtId pfg(NodeId n) const;

  // Chain of (statement, component-region containing n) pairs from innermost
  // to outermost; empty for top-level nodes.
  struct Enclosing {
    ParStmtId stmt;
    RegionId component;
  };
  std::vector<Enclosing> enclosing_stmts(NodeId n) const;

  // All nodes of region r including nodes of nested parallel statements'
  // components (the paper's Nodes(G') for a component G').
  avector<NodeId> nodes_in_region_recursive(RegionId r) const;

  // Callback-style variant for hot loops: visits the same nodes without
  // materializing a vector per call. Region traversal order matches
  // nodes_in_region_recursive.
  template <class Fn>
  void for_each_node_in_region_recursive(RegionId r, Fn&& fn) const {
    avector<RegionId> stack{r};
    while (!stack.empty()) {
      RegionId cur = stack.back();
      stack.pop_back();
      const Region& reg = regions_[cur.index()];
      for (NodeId n : reg.nodes) fn(n);
      for (ParStmtId s : reg.child_stmts) {
        for (RegionId comp : par_stmts_[s.index()].components) {
          stack.push_back(comp);
        }
      }
    }
  }

  // The unique component entry node: target of the ParBegin edge into r.
  // Derived from edges, so call only once the statement is fully wired.
  NodeId component_entry(RegionId r) const;
  // Nodes of r with an edge to the statement's ParEnd.
  std::vector<NodeId> component_exits(RegionId r) const;

  // Statement nesting depth of a region (root = 0).
  int region_depth(RegionId r) const;

  // --- bookkeeping for transformations --------------------------------------
  // Moves node n in front of `before`: redirects every incoming edge of
  // `before` to n and adds edge n -> before. n must be fresh (no edges) and
  // in the same region as `before`.
  void splice_before(NodeId n, NodeId before);
  // Moves node n right after `after` on all outgoing edges of `after`.
  void splice_after(NodeId n, NodeId after);

 private:
  avector<Node> nodes_;
  avector<Edge> edges_;
  avector<Region> regions_;
  avector<ParStmt> par_stmts_;
  std::vector<std::string> var_names_;
  std::unordered_map<std::string, VarId> var_index_;
  NodeId start_;
  NodeId end_;
};

}  // namespace parcm
