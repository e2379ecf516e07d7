// Allocation accounting: a counting global operator new/delete replacement
// that tallies per-thread allocation counts and requested bytes, feeding
// the driver's allocs_per_program metric (the baseline measurement for the
// arena/cache roadmap item).
//
// The hook is compiled only when PARCM_OBS_ALLOC_HOOK is 1 — set by CMake
// for PARCM_OBS=ON builds without sanitizers (ASan/TSan bring their own
// allocator and must keep ownership of operator new). Everywhere else the
// API stays link-compatible and reports zero; alloc_hook_active() tells
// callers and tests which world they are in.
//
// Counters are plain thread_local PODs: the hot path is two increments,
// no locks, no atomics, and safe during thread start-up/teardown.
#pragma once

#include <cstdint>

#ifndef PARCM_OBS_ENABLED
#define PARCM_OBS_ENABLED 1
#endif

namespace parcm::obs {

// True when this process counts allocations (hook compiled in).
bool alloc_hook_active();

// Allocations / requested bytes by the calling thread since it started.
// Always 0 when the hook is compiled out.
std::uint64_t thread_alloc_count();
std::uint64_t thread_alloc_bytes();

#if PARCM_OBS_ENABLED

// RAII window over the calling thread's allocation counters: allocs() and
// bytes() report the delta since construction. Only meaningful on the
// thread that constructed it.
class AllocCounterScope {
 public:
  AllocCounterScope();
  std::uint64_t allocs() const;
  std::uint64_t bytes() const;

 private:
  std::uint64_t start_allocs_;
  std::uint64_t start_bytes_;
};

#else  // !PARCM_OBS_ENABLED

namespace detail {
// Stateless stand-in so PARCM_OBS=OFF call sites compile to nothing; a
// distinct type (not an #ifdef'd body) keeps the mangled names of the two
// variants apart when an OFF translation unit links an ON library.
struct NullAllocCounterScope {
  std::uint64_t allocs() const { return 0; }
  std::uint64_t bytes() const { return 0; }
};
}  // namespace detail
using AllocCounterScope = detail::NullAllocCounterScope;

#endif  // PARCM_OBS_ENABLED

}  // namespace parcm::obs
