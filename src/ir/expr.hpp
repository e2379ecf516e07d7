// Expressions of the 3-address parallel IR.
//
// Right-hand sides contain at most one operator (the paper's 3-address
// assumption, Section 3). A *term* — the unit of code motion — is a binary
// right-hand side `a op b`; trivial right-hand sides (variable or constant)
// are free under the paper's cost model and never moved.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "support/ids.hpp"

namespace parcm {

enum class BinOp : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
};

const char* bin_op_symbol(BinOp op);

// A variable or an integer literal.
class Operand {
 public:
  // Defaults to the constant 0.
  Operand() : Operand(VarId(), 0) {}

  static Operand var(VarId v) { return Operand(v, 0); }
  static Operand constant(std::int64_t c) { return Operand(VarId(), c); }

  bool is_var() const { return var_.valid(); }
  bool is_const() const { return !var_.valid(); }
  VarId var_id() const { return var_; }
  std::int64_t const_value() const { return const_; }

  bool operator==(const Operand&) const = default;

 private:
  Operand(VarId v, std::int64_t c) : var_(v), const_(c) {}
  VarId var_;
  std::int64_t const_;
};

// `a op b` — the movable computation pattern. Terms are compared lexically:
// two occurrences are the same pattern iff operator and operands coincide
// syntactically (no commutativity normalization; the paper's notion).
struct Term {
  BinOp op;
  Operand lhs;
  Operand rhs;

  bool has_operand(VarId v) const {
    return (lhs.is_var() && lhs.var_id() == v) ||
           (rhs.is_var() && rhs.var_id() == v);
  }

  bool operator==(const Term&) const = default;
};

// Right-hand side of an assignment: a binary term or a trivial operand.
class Rhs {
 public:
  Rhs() : Rhs(Operand::constant(0)) {}
  explicit Rhs(Operand trivial) : trivial_(trivial) {}
  explicit Rhs(Term term) : term_(term), trivial_(Operand::constant(0)) {}

  bool is_term() const { return term_.has_value(); }
  bool is_trivial() const { return !term_.has_value(); }
  const Term& term() const { return *term_; }
  const Operand& trivial() const { return trivial_; }

  // True iff variable v appears anywhere in this right-hand side.
  bool uses_var(VarId v) const;

  // Calls fn(v) for every variable operand, left to right.
  template <class Fn>
  void for_each_var(Fn&& fn) const {
    if (term_) {
      if (term_->lhs.is_var()) fn(term_->lhs.var_id());
      if (term_->rhs.is_var()) fn(term_->rhs.var_id());
    } else if (trivial_.is_var()) {
      fn(trivial_.var_id());
    }
  }

  bool operator==(const Rhs&) const = default;

 private:
  std::optional<Term> term_;
  Operand trivial_;
};

}  // namespace parcm
