// Second differential oracle: seeded VM schedules instead of enumerated or
// interpreter-sampled interleavings.
//
// The VM runs the split-assignment lowering under a pinned per-schedule
// xoshiro stream, so every run is a genuine Remark 2.1 behaviour of the
// program; N schedules per side cost O(N * program length) — independent of
// the interleaving count that drives the exact checker's bill. The verdict
// logic mirrors differential_check's sampled path: a transformed-only final
// store is alarmed only after a one-sided POR enumeration of the original
// completes without producing it (sound kDiverged), and stays
// kInconclusive otherwise. Divergences are classified with the same P1–P3
// remark provenance (classify_divergence).
#pragma once

#include <cstdint>
#include <vector>

#include "ir/graph.hpp"
#include "obs/remarks.hpp"
#include "verify/verify.hpp"

namespace parcm::verify {

struct VmBudget {
  // Seeded schedules per side.
  std::size_t schedules = 64;
  // Instruction cap per schedule (the split lowering spends ~2 instructions
  // per assignment, so this is roomier than Budget::max_steps).
  std::size_t max_steps = 40000;
  // Base of the schedule streams; same seed, same schedules, same verdict.
  std::uint64_t seed = 0x5EEDC0DEuLL;
  // Escalation budget for the one-sided exact enumeration that a candidate
  // divergence must survive before it is believed; the enumeration may
  // visit 8 * max_states states.
  std::size_t max_exact_nodes = 72;
  std::size_t max_states = 1u << 19;
};

// Compares final stores of `before` and `after` (projected onto the
// variables of `before`) across seeded VM schedules. Deterministic for
// fixed inputs and budget; `remarks` feeds pitfall classification exactly
// as in differential_check.
Verdict vm_differential_check(const Graph& before, const Graph& after,
                              const VmBudget& budget = {},
                              const std::vector<obs::Remark>* remarks = nullptr);

}  // namespace parcm::verify
