// Chase–Lev work-stealing deque for the parallel VM (run_parallel): each
// worker owns one, pushes and pops tasks at the bottom (LIFO, cache-warm),
// and thieves steal from the top (FIFO). The memory orderings follow
// Lê/Pop/Cohen/Zappa Nardelli, "Correct and Efficient Work-Stealing for
// Weak Memory Models" (PPoPP'13). Capacity is fixed at construction: the
// VM knows its task count (one per region) up front, so the
// growable-buffer reclamation problem never arises.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace parcm::vm {

// Fixed-capacity Chase–Lev deque of task indices (regions). Owner calls push/pop;
// any thread may call steal.
class WorkStealingDeque {
 public:
  // Capacity is rounded up to a power of two and must accommodate every
  // push (the VM sizes it to the region count).
  explicit WorkStealingDeque(std::size_t capacity);

  // Owner only. Returns false when full (the VM checks it; the hammer
  // tests exercise it).
  bool push(std::size_t job);

  // Owner only. Returns false when empty.
  bool pop(std::size_t* job);

  // Any thread. Returns false when empty or when the race for the top
  // element was lost.
  bool steal(std::size_t* job);

  bool empty() const;

 private:
  std::size_t mask_;
  std::unique_ptr<std::atomic<std::size_t>[]> buffer_;
  // top_ is the steal end, bottom_ the owner end; bottom_ - top_ is the
  // current size. int64 so the transient bottom_ = top_ - 1 state of a
  // losing pop is representable.
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

}  // namespace parcm::vm
