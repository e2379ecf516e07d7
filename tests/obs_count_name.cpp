// PARCM_OBS_COUNT accepts only compile-time constant counter names, so no
// call site can mint a name per program. tests/CMakeLists.txt compiles this
// file once as is, which must succeed, and once per PARCM_COUNT_NAME_CASE
// below, each of which must fail to compile.
#include <string>

#include "obs/metrics.hpp"

void count_literal_name(bool hit) {
  if (hit) {
    PARCM_OBS_COUNT("obs.test.hits", 1);
  } else {
    PARCM_OBS_COUNT("obs.test.misses", 1);
  }
}

#if PARCM_COUNT_NAME_CASE == 1
// A name built per term, like the deleted motion.term.<temp>.* counters.
void count_runtime_name(const std::string& temp) {
  PARCM_OBS_COUNT("motion.term." + temp + ".insertions", 1);
}
#elif PARCM_COUNT_NAME_CASE == 2
// A name chosen at run time between two literals.
void count_chosen_name(bool hit) {
  PARCM_OBS_COUNT(hit ? "obs.test.hits" : "obs.test.misses", 1);
}
#endif
