#include "obs/alloc.hpp"

#include <cstdlib>
#include <new>

#ifndef PARCM_OBS_ALLOC_HOOK
#define PARCM_OBS_ALLOC_HOOK 0
#endif

namespace parcm::obs {

#if PARCM_OBS_ALLOC_HOOK
namespace {
// Zero-initialized POD: no dynamic TLS construction, so the counters are
// safe to touch from the very first allocation a thread makes.
struct AllocCounters {
  std::uint64_t allocs;
  std::uint64_t bytes;
};
thread_local AllocCounters tl_alloc_counters;
}  // namespace
#endif

bool alloc_hook_active() { return PARCM_OBS_ALLOC_HOOK != 0; }

std::uint64_t thread_alloc_count() {
#if PARCM_OBS_ALLOC_HOOK
  return tl_alloc_counters.allocs;
#else
  return 0;
#endif
}

std::uint64_t thread_alloc_bytes() {
#if PARCM_OBS_ALLOC_HOOK
  return tl_alloc_counters.bytes;
#else
  return 0;
#endif
}

#if PARCM_OBS_ENABLED
AllocCounterScope::AllocCounterScope()
    : start_allocs_(thread_alloc_count()), start_bytes_(thread_alloc_bytes()) {}
std::uint64_t AllocCounterScope::allocs() const {
  return thread_alloc_count() - start_allocs_;
}
std::uint64_t AllocCounterScope::bytes() const {
  return thread_alloc_bytes() - start_bytes_;
}
#endif

}  // namespace parcm::obs

#if PARCM_OBS_ALLOC_HOOK

namespace {

void* counted_alloc(std::size_t size) {
  auto& c = parcm::obs::tl_alloc_counters;
  ++c.allocs;
  c.bytes += size;
  return std::malloc(size ? size : 1);
}

}  // namespace

// Replaceable global allocation functions ([new.delete.single/array]).
// Over-aligned variants are left to the implementation — the compiler
// never mixes them with these, and the solver allocates nothing
// over-aligned worth counting.

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // PARCM_OBS_ALLOC_HOOK
