// Once-per-solve region metadata for the hierarchical solvers.
//
// Both solvers need (a) per-region destroy masks aggregated over the
// region's recursive subtree — the "some node of a sibling component
// destroys" predicate behind NonDest and the synchronization policies — and
// (b) the NonDest value itself, which is constant across all nodes of a
// region. Regions are created parents-first, so one reverse index scan
// folds children into parents and one forward scan pushes NonDest down the
// nesting tree; neither materializes nodes_in_region_recursive.
//
// The may-analyses (parallel liveness, the contested variables of sinking
// and constant propagation) use the dual of NonDest on flat word matrices:
// what a sibling component, at any nesting level, may do while a region
// runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/graph.hpp"
#include "support/bitvector.hpp"

namespace parcm {

// Packed flavour: one destroy mask per region over the term universe.
std::vector<BitVector> region_destroy_masks(
    const Graph& g, const std::vector<BitVector>& node_destroy,
    std::size_t num_terms);

// Scalar flavour: one flag per region for the single-term solver.
std::vector<char> region_destroy_flags(const Graph& g,
                                       const std::vector<bool>& node_destroy);

// NonDest per region: all-true at the root; a component drops every term
// destroyed somewhere in a sibling component, at every nesting level.
std::vector<BitVector> region_nondest_masks(
    const Graph& g, const std::vector<BitVector>& region_destroy,
    std::size_t num_terms);

std::vector<char> region_nondest_flags(
    const Graph& g, const std::vector<char>& region_destroy);

// Flat may-flavour over R x `words` row-major word matrices: `direct` holds
// one row per region for its own member nodes.
//
// Subtree rows: row r is the union of the direct rows of r and of every
// region nested in it.
std::vector<BitVector::Word> region_subtree_rows(
    const Graph& g, std::span<const BitVector::Word> direct,
    std::size_t words);

// Sibling rows: row r is the union of the subtree rows of every sibling
// component of r and of each of r's enclosing components; the root's row
// is empty.
std::vector<BitVector::Word> region_sibling_rows(
    const Graph& g, std::span<const BitVector::Word> direct,
    std::size_t words);

// Row r: the variables assigned by r's own member nodes, over `words`
// words per row.
std::vector<BitVector::Word> region_write_rows(const Graph& g,
                                               std::size_t words);

// Variables with a potentially-parallel (write, access) pair: a node's
// write conflicts with an access anywhere in a sibling component of its
// region, at any nesting level.
BitVector contested_vars(const Graph& g);

}  // namespace parcm
