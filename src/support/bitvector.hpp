// Dynamic packed bitvector.
//
// The word-parallel engine in `dfa/packed` relies on direct word access
// (words()), so the representation is deliberately transparent: a vector of
// 64-bit words, least significant bit first, with all bits beyond size()
// kept at zero (the class re-normalizes after every whole-word operation).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/arena.hpp"

namespace parcm {

class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitVector() = default;
  explicit BitVector(std::size_t size, bool value = false);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool test(std::size_t i) const;
  void set(std::size_t i, bool value = true);
  void reset(std::size_t i);
  void flip(std::size_t i);

  void set_all();
  void reset_all();

  // Grows or shrinks; new bits are `value`.
  void resize(std::size_t size, bool value = false);

  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }
  bool all() const;

  // Word-wise logical operations; operands must have equal size.
  BitVector& operator&=(const BitVector& o);
  BitVector& operator|=(const BitVector& o);
  BitVector& operator^=(const BitVector& o);
  // this := this & ~o
  BitVector& and_not(const BitVector& o);
  // Fused in-place forms used by the allocation-free solver kernels: each
  // replaces a two-step sequence that would otherwise materialize a
  // temporary BitVector. All operands must have equal size.
  // this := a & ~b
  BitVector& assign_and_not(const BitVector& a, const BitVector& b);
  // this := this | (a & ~b)
  BitVector& or_with_and_not(const BitVector& a, const BitVector& b);
  // Flip every bit.
  void invert();

  friend BitVector operator&(BitVector a, const BitVector& b) { return a &= b; }
  friend BitVector operator|(BitVector a, const BitVector& b) { return a |= b; }
  friend BitVector operator^(BitVector a, const BitVector& b) { return a ^= b; }
  friend BitVector operator~(BitVector a) {
    a.invert();
    return a;
  }

  bool operator==(const BitVector& o) const = default;

  // True iff every set bit of *this is also set in o.
  bool is_subset_of(const BitVector& o) const;
  // True iff (*this & o) has any set bit.
  bool intersects(const BitVector& o) const;

  // Index of first set bit, or size() if none.
  std::size_t find_first() const;
  // Index of first set bit > i, or size() if none.
  std::size_t find_next(std::size_t i) const;
  // Index of first set bit >= i, or size() if none.
  std::size_t find_first_from(std::size_t i) const;

  // Calls fn(i) for every set bit, in increasing order. Word-at-a-time, so
  // considerably cheaper than iterating set_bits() on sparse vectors.
  template <class Fn>
  void for_each_set_bit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word bits = words_[w];
      while (bits != 0) {
        Word lsb = bits & (~bits + 1);
        fn(w * kWordBits + bit_index(lsb));
        bits ^= lsb;
      }
    }
  }

  avector<Word>& words() { return words_; }
  const avector<Word>& words() const { return words_; }
  std::size_t word_count() const { return words_.size(); }

  // Zeroes any bits at positions >= size(); call after raw word writes.
  void normalize();

  // Bit i of a raw word row, for the solvers' flat row-major word matrices.
  static void set_bit(Word* row, std::size_t i) {
    row[i / kWordBits] |= Word{1} << (i % kWordBits);
  }
  static bool test_bit(const Word* row, std::size_t i) {
    return (row[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  // "0110..." least-significant (index 0) first.
  std::string to_string() const;

  // Iterate set bits: for (std::size_t i : bv.set_bits()) ...
  class SetBitRange;
  SetBitRange set_bits() const;

 private:
  static std::size_t bit_index(Word isolated_bit) {
    return static_cast<std::size_t>(std::countr_zero(isolated_bit));
  }

  std::size_t size_ = 0;
  avector<Word> words_;
};

class BitVector::SetBitRange {
 public:
  explicit SetBitRange(const BitVector& bv) : bv_(&bv) {}

  class iterator {
   public:
    iterator(const BitVector* bv, std::size_t pos) : bv_(bv), pos_(pos) {}
    std::size_t operator*() const { return pos_; }
    iterator& operator++() {
      pos_ = bv_->find_next(pos_);
      return *this;
    }
    bool operator!=(const iterator& o) const { return pos_ != o.pos_; }

   private:
    const BitVector* bv_;
    std::size_t pos_;
  };

  iterator begin() const { return iterator(bv_, bv_->find_first()); }
  iterator end() const { return iterator(bv_, bv_->size()); }

 private:
  const BitVector* bv_;
};

inline BitVector::SetBitRange BitVector::set_bits() const {
  return SetBitRange(*this);
}

}  // namespace parcm
