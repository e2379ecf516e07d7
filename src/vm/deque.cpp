#include "vm/deque.hpp"

namespace parcm::vm {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

WorkStealingDeque::WorkStealingDeque(std::size_t capacity)
    : mask_(round_up_pow2(capacity < 2 ? 2 : capacity) - 1),
      buffer_(new std::atomic<std::size_t>[mask_ + 1]) {}

bool WorkStealingDeque::push(std::size_t job) {
  std::int64_t b = bottom_.load(std::memory_order_relaxed);
  std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t > static_cast<std::int64_t>(mask_)) return false;  // full
  buffer_[static_cast<std::size_t>(b) & mask_].store(
      job, std::memory_order_relaxed);
  // Publish the element before publishing the new bottom.
  bottom_.store(b + 1, std::memory_order_release);
  return true;
}

bool WorkStealingDeque::pop(std::size_t* job) {
  std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  // The seq_cst store is the heart of the algorithm: it must be ordered
  // against the thief's seq_cst load of bottom_ so owner and thief cannot
  // both claim the last element.
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Empty: restore bottom.
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;
  }
  *job = buffer_[static_cast<std::size_t>(b) & mask_].load(
      std::memory_order_relaxed);
  if (t == b) {
    // Last element: race thieves for it by advancing top.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      // A thief won; the deque is now empty.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return true;
}

bool WorkStealingDeque::steal(std::size_t* job) {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return false;  // empty
  std::size_t candidate =
      buffer_[static_cast<std::size_t>(t) & mask_].load(
          std::memory_order_relaxed);
  // Claim the top element; losing the CAS means another thief or the
  // owner's last-element pop got there first.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return false;
  }
  *job = candidate;
  return true;
}

bool WorkStealingDeque::empty() const {
  std::int64_t t = top_.load(std::memory_order_acquire);
  std::int64_t b = bottom_.load(std::memory_order_acquire);
  return t >= b;
}

}  // namespace parcm::vm
