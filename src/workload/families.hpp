// Parameterized program families backing the benchmark sweeps (DESIGN.md
// experiment ids C1-C6 and the Fig. 2 / Fig. 10 sweeps).
#pragma once

#include <cstddef>
#include <cstdint>

#include "ir/graph.hpp"

namespace parcm::families {

// Fig. 2 with a configurable bottleneck: one component computes c+b (also
// used after the join), the sibling runs `bottleneck` unhoistable recursive
// increments.
Graph fig2_family(std::size_t bottleneck);

// Fig. 10 skeleton with `loops` parallel loop nests; drive the loop trip
// count through cost.hpp's LoopOracle.
Graph fig10_family(std::size_t loops_per_component);

// Straight-line sequential chain: n assignments cycling over a small term
// pool (scaling baseline for C1).
Graph seq_chain(std::size_t n, std::size_t term_pool = 8);

// One parallel statement with `components` components of `len` assignments
// each (C1 scaling, C2 product blowup).
Graph par_wide(std::size_t components, std::size_t len,
               std::size_t term_pool = 8);

// `depth` nested parallel statements, two components each, `len` statements
// per component (C1 scaling on nesting).
Graph par_nested(std::size_t depth, std::size_t len);

// Large-program family (the default pipeline's size sweep): `segments`
// repetitions of seq / par { ... } and { ... } / seq, each block four
// `x := a + b` with x, a and b drawn from v0..v9 by Rng(seed), so every
// segment adds 20 flow-graph nodes (20 * segments + 2 with s* and e*).
Graph large_family(std::size_t segments, std::uint64_t seed);

}  // namespace parcm::families
