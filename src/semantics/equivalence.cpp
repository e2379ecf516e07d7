#include "semantics/equivalence.hpp"

#include <algorithm>

namespace parcm {

std::vector<std::string> all_var_names(const Graph& g) {
  std::vector<std::string> names;
  names.reserve(g.num_vars());
  for (std::size_t v = 0; v < g.num_vars(); ++v) {
    names.push_back(g.var_name(VarId(static_cast<VarId::underlying>(v))));
  }
  return names;
}

ConsistencyVerdict check_sequential_consistency(
    const Graph& original, const Graph& transformed,
    std::vector<std::string> observed, const EnumerationOptions& options) {
  if (observed.empty()) observed = all_var_names(original);

  EnumerationResult orig = enumerate_executions(original, observed, options);
  EnumerationResult trans = enumerate_executions(transformed, observed, options);
  return compare_behaviours(orig, trans);
}

ConsistencyVerdict compare_behaviours(const EnumerationResult& orig,
                                      const EnumerationResult& trans) {
  ConsistencyVerdict v;
  v.exhausted = orig.exhausted && trans.exhausted;
  v.original_behaviours = orig.finals.size();
  v.transformed_behaviours = trans.finals.size();

  v.sequentially_consistent = true;
  for (const auto& s : trans.finals) {
    if (!orig.finals.contains(s)) {
      v.sequentially_consistent = false;
      v.violation_witness = s;
      break;
    }
  }
  v.behaviours_preserved =
      v.sequentially_consistent &&
      std::all_of(orig.finals.begin(), orig.finals.end(),
                  [&](const auto& s) { return trans.finals.contains(s); });
  return v;
}

}  // namespace parcm
