// Sequential-consistency checking by exhaustive interleaving enumeration
// (paper Sec. 1, Figs. 3/4).
//
// A transformation preserves sequential consistency iff every observable
// behaviour of the transformed program is an observable behaviour of the
// original: finals(transformed)|vars(original) ⊆ finals(original). Code
// motion never removes behaviours either, so `behaviours_preserved`
// (equality) is the expected verdict for admissible transformations.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "semantics/enumerator.hpp"

namespace parcm {

struct ConsistencyVerdict {
  bool sequentially_consistent = false;  // transformed ⊆ original
  bool behaviours_preserved = false;     // and original ⊆ transformed
  bool exhausted = true;                 // both enumerations complete
  std::size_t original_behaviours = 0;
  std::size_t transformed_behaviours = 0;
  // A transformed-only final state (ordered as `observed`), if any.
  std::optional<std::vector<std::int64_t>> violation_witness;
};

// `observed` defaults (empty vector) to all variables of `original`, in
// interning order; variables added by the transformation are ignored.
ConsistencyVerdict check_sequential_consistency(
    const Graph& original, const Graph& transformed,
    std::vector<std::string> observed = {},
    const EnumerationOptions& options = {});

// The verdict on two enumerations over the same observed variables (what
// check_sequential_consistency returns after enumerating both sides).
ConsistencyVerdict compare_behaviours(const EnumerationResult& original,
                                      const EnumerationResult& transformed);

// All variable names of g in interning order.
std::vector<std::string> all_var_names(const Graph& g);

}  // namespace parcm
