#include "workload/randomprog.hpp"

#include <string>

#include "ir/builder.hpp"

namespace parcm {

namespace {

class Generator {
 public:
  Generator(Rng& rng, const RandomProgramOptions& opt)
      : rng_(rng), opt_(opt), budget_(opt.target_stmts) {
    for (int i = 0; i < opt_.num_vars; ++i) {
      vars_.push_back(builder_.var("v" + std::to_string(i)));
    }
  }

  Graph run() {
    block(0);
    // Guarantee at least one movable computation so downstream consumers
    // (term tables, analyses) have something to chew on. The term is drawn
    // before the variable: two draws in one argument list would leave their
    // order, and so the program, to the compiler.
    Term t = random_term();
    VarId lhs = pick_var();
    builder_.assign(lhs, Rhs(t));
    return builder_.finish();
  }

 private:
  VarId pick_var() { return vars_[rng_.below(vars_.size())]; }

  Operand random_operand() {
    if (rng_.chance(200, 1000)) {
      return Operand::constant(rng_.range(0, 9));
    }
    return Operand::var(pick_var());
  }

  Term random_term() {
    static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul};
    return Term{kOps[rng_.below(3)], random_operand(), random_operand()};
  }

  Rhs random_cond() {
    static constexpr BinOp kRels[] = {BinOp::kLt, BinOp::kLe, BinOp::kNe};
    return Rhs(Term{kRels[rng_.below(3)], random_operand(), random_operand()});
  }

  void assignment() {
    VarId lhs = pick_var();
    if (rng_.chance(static_cast<std::uint64_t>(opt_.trivial_permille), 1000)) {
      builder_.assign(lhs, Rhs(random_operand()));
      return;
    }
    Term t = random_term();
    if (rng_.chance(static_cast<std::uint64_t>(opt_.recursive_permille),
                    1000)) {
      // Force the lhs into the rhs to make the assignment recursive.
      t.lhs = Operand::var(lhs);
    }
    builder_.assign(lhs, Rhs(t));
  }

  void statement(int par_depth) {
    if (budget_ == 0) return;
    --budget_;
    if (par_depth > 0 && opt_.barrier_permille > 0 &&
        rng_.chance(static_cast<std::uint64_t>(opt_.barrier_permille), 1000)) {
      builder_.barrier();
      return;
    }
    std::uint64_t roll = rng_.below(1000);
    std::uint64_t acc = 0;

    acc += static_cast<std::uint64_t>(opt_.par_permille);
    if (roll < acc && par_depth < opt_.max_par_depth && budget_ >= 2) {
      std::size_t comps =
          2 + rng_.below(static_cast<std::uint64_t>(opt_.max_components - 1));
      std::vector<GraphBuilder::BlockFn> blocks;
      for (std::size_t i = 0; i < comps; ++i) {
        blocks.push_back([this, par_depth] { block(par_depth + 1); });
      }
      builder_.par(blocks);
      return;
    }

    acc += static_cast<std::uint64_t>(opt_.if_permille);
    if (roll < acc) {
      auto then_b = [this, par_depth] { block(par_depth); };
      auto else_b = [this, par_depth] { block(par_depth); };
      if (opt_.cond_permille > 0 &&
          rng_.chance(static_cast<std::uint64_t>(opt_.cond_permille), 1000)) {
        builder_.if_cond(random_cond(), then_b, else_b);
      } else {
        builder_.if_nondet(then_b, else_b);
      }
      return;
    }

    acc += static_cast<std::uint64_t>(opt_.while_permille);
    if (roll < acc) {
      builder_.while_nondet([this, par_depth] { block(par_depth); });
      return;
    }

    acc += static_cast<std::uint64_t>(opt_.choose_permille);
    if (roll < acc) {
      builder_.choose({[this, par_depth] { block(par_depth); },
                       [this, par_depth] { block(par_depth); }});
      return;
    }

    assignment();
  }

  void block(int par_depth) {
    std::size_t n = 1 + rng_.below(3);
    for (std::size_t i = 0; i < n && budget_ > 0; ++i) statement(par_depth);
  }

  Rng& rng_;
  const RandomProgramOptions& opt_;
  std::size_t budget_;
  GraphBuilder builder_;
  std::vector<VarId> vars_;
};

// AST twin of Generator. Same structured vocabulary, but builds lang::Stmt
// values instead of driving GraphBuilder, so the result can be unparsed and
// delta-debugged. Shapes are kept in sync with Generator by hand; the two
// deliberately consume their RNG differently (the AST path adds the pitfall
// shapes), so equal seeds do not imply equal programs across the two APIs.
class AstGenerator {
 public:
  AstGenerator(Rng& rng, const RandomProgramOptions& opt)
      : rng_(rng), opt_(opt), budget_(opt.target_stmts) {
    for (int i = 0; i < opt_.num_vars; ++i) {
      vars_.push_back("v" + std::to_string(i));
    }
  }

  lang::Program run() {
    lang::Program p;
    block(&p.body, 0);
    // Guarantee at least one movable computation (mirrors Generator::run,
    // term first).
    lang::AExpr t = random_term();
    std::string lhs = pick_var();
    p.body.push_back(assign_stmt(std::move(lhs), std::move(t)));
    return p;
  }

 private:
  const std::string& pick_var() { return vars_[rng_.below(vars_.size())]; }

  lang::AOperand random_operand() {
    if (rng_.chance(200, 1000)) {
      return lang::AOperand::constant(rng_.range(0, 9));
    }
    return lang::AOperand::var(pick_var());
  }

  BinOp random_op() {
    static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul};
    return kOps[rng_.below(3)];
  }

  lang::AExpr random_term() {
    return lang::AExpr{random_operand(), random_op(), random_operand()};
  }

  lang::ACond random_cond() {
    static constexpr BinOp kRels[] = {BinOp::kLt, BinOp::kLe, BinOp::kNe};
    lang::ACond c;
    c.nondet = false;
    c.expr = lang::AExpr{random_operand(), kRels[rng_.below(3)],
                         random_operand()};
    return c;
  }

  static lang::Stmt assign_stmt(std::string lhs, lang::AExpr rhs) {
    lang::Stmt s;
    s.kind = lang::StmtKind::kAssign;
    s.lhs = std::move(lhs);
    s.rhs = std::move(rhs);
    return s;
  }

  lang::Stmt assignment() {
    std::string lhs = pick_var();
    if (rng_.chance(static_cast<std::uint64_t>(opt_.trivial_permille), 1000)) {
      return assign_stmt(std::move(lhs), lang::AExpr{random_operand(), {}, {}});
    }
    lang::AExpr t = random_term();
    if (rng_.chance(static_cast<std::uint64_t>(opt_.recursive_permille),
                    1000)) {
      t.a = lang::AOperand::var(lhs);
    }
    return assign_stmt(std::move(lhs), std::move(t));
  }

  // Two distinct variables; falls back to duplicates with one variable.
  std::pair<std::string, std::string> pick_var_pair() {
    std::string a = pick_var();
    std::string b = pick_var();
    while (b == a && vars_.size() > 1) b = pick_var();
    return {std::move(a), std::move(b)};
  }

  // The pitfall shapes seed their operands with *distinct* constants first:
  // with everything default-zero the racy intermediate values coincide with
  // the correct ones and the divergence is invisible to any oracle.
  void init_distinct(lang::Block* out, const std::string& a,
                     const std::string& b) {
    std::int64_t ca = rng_.range(1, 5);
    out->push_back(
        assign_stmt(a, lang::AExpr{lang::AOperand::constant(ca), {}, {}}));
    out->push_back(assign_stmt(
        b, lang::AExpr{lang::AOperand::constant(ca + rng_.range(1, 4)),
                       {}, {}}));
  }

  // Paper Fig. 4 shape: a recursive occurrence of a op b followed by a plain
  // one in the same component, a sibling occurrence, and a post-join
  // occurrence. Both in-component occurrences need an initialization, so a
  // shared (unprivatized) temporary lets the sibling's stale value win (P2 /
  // privatization).
  void p2_shape(lang::Block* out) {
    auto [a, b] = pick_var_pair();
    BinOp op = random_op();
    lang::AExpr occ{lang::AOperand::var(a), op, lang::AOperand::var(b)};
    init_distinct(out, a, b);
    lang::Stmt par;
    par.kind = lang::StmtKind::kPar;
    par.blocks.resize(2);
    par.blocks[0].push_back(assign_stmt(a, occ));
    par.blocks[0].push_back(assign_stmt(pick_var(), occ));
    par.blocks[1].push_back(assign_stmt(pick_var(), occ));
    out->push_back(std::move(par));
    out->push_back(assign_stmt(pick_var(), occ));
  }

  // Paper Figs. 6/7 shape: two occurrences of a op b bracket a modification
  // of a in one component, the sibling holds another occurrence (sometimes
  // symmetrically bracketing a modification of b), and the term occurs again
  // after the join. Up-/down-safety hold at the join via *different*
  // occurrences on different interleavings, so the naive placement (and,
  // two-sided, a missing ParEnd export rule) suppresses a needed post-join
  // initialization (P3).
  void p3_shape(lang::Block* out) {
    auto [a, b] = pick_var_pair();
    BinOp op = random_op();
    lang::AExpr occ{lang::AOperand::var(a), op, lang::AOperand::var(b)};
    init_distinct(out, a, b);
    lang::Stmt par;
    par.kind = lang::StmtKind::kPar;
    par.blocks.resize(2);
    par.blocks[0].push_back(assign_stmt(pick_var(), occ));
    par.blocks[0].push_back(assign_stmt(
        a, lang::AExpr{lang::AOperand::constant(rng_.range(6, 9)), {}, {}}));
    par.blocks[0].push_back(assign_stmt(pick_var(), occ));
    par.blocks[1].push_back(assign_stmt(pick_var(), occ));
    if (rng_.chance(1, 2)) {  // the full, two-sided Fig. 7
      par.blocks[1].push_back(assign_stmt(
          b,
          lang::AExpr{lang::AOperand::constant(rng_.range(6, 9)), {}, {}}));
      par.blocks[1].push_back(assign_stmt(pick_var(), occ));
    }
    out->push_back(std::move(par));
    out->push_back(assign_stmt(pick_var(), occ));
  }

  void statement(lang::Block* out, int par_depth) {
    if (budget_ == 0) return;
    --budget_;
    if (par_depth > 0 && opt_.barrier_permille > 0 &&
        rng_.chance(static_cast<std::uint64_t>(opt_.barrier_permille), 1000)) {
      lang::Stmt s;
      s.kind = lang::StmtKind::kBarrier;
      out->push_back(std::move(s));
      return;
    }
    if (par_depth < opt_.max_par_depth && budget_ >= 2 &&
        opt_.p2_shape_permille > 0 &&
        rng_.chance(static_cast<std::uint64_t>(opt_.p2_shape_permille),
                    1000)) {
      if (budget_ > 0) --budget_;
      p2_shape(out);
      return;
    }
    if (par_depth < opt_.max_par_depth && budget_ >= 2 &&
        opt_.p3_shape_permille > 0 &&
        rng_.chance(static_cast<std::uint64_t>(opt_.p3_shape_permille),
                    1000)) {
      if (budget_ > 0) --budget_;
      p3_shape(out);
      return;
    }
    std::uint64_t roll = rng_.below(1000);
    std::uint64_t acc = 0;

    acc += static_cast<std::uint64_t>(opt_.par_permille);
    if (roll < acc && par_depth < opt_.max_par_depth && budget_ >= 2) {
      std::size_t comps =
          2 + rng_.below(static_cast<std::uint64_t>(opt_.max_components - 1));
      lang::Stmt s;
      s.kind = lang::StmtKind::kPar;
      s.blocks.resize(comps);
      for (std::size_t i = 0; i < comps; ++i) {
        block(&s.blocks[i], par_depth + 1);
      }
      out->push_back(std::move(s));
      return;
    }

    acc += static_cast<std::uint64_t>(opt_.if_permille);
    if (roll < acc) {
      lang::Stmt s;
      s.kind = lang::StmtKind::kIf;
      s.blocks.resize(2);
      if (opt_.cond_permille > 0 &&
          rng_.chance(static_cast<std::uint64_t>(opt_.cond_permille), 1000)) {
        s.cond = random_cond();
      } else {
        s.cond.nondet = true;
      }
      block(&s.blocks[0], par_depth);
      block(&s.blocks[1], par_depth);
      out->push_back(std::move(s));
      return;
    }

    acc += static_cast<std::uint64_t>(opt_.while_permille);
    if (roll < acc) {
      lang::Stmt s;
      s.kind = lang::StmtKind::kWhile;
      s.cond.nondet = true;
      s.blocks.resize(1);
      block(&s.blocks[0], par_depth);
      out->push_back(std::move(s));
      return;
    }

    acc += static_cast<std::uint64_t>(opt_.choose_permille);
    if (roll < acc) {
      lang::Stmt s;
      s.kind = lang::StmtKind::kChoose;
      s.blocks.resize(2);
      block(&s.blocks[0], par_depth);
      block(&s.blocks[1], par_depth);
      out->push_back(std::move(s));
      return;
    }

    out->push_back(assignment());
  }

  void block(lang::Block* out, int par_depth) {
    std::size_t n = 1 + rng_.below(3);
    for (std::size_t i = 0; i < n && budget_ > 0; ++i) {
      statement(out, par_depth);
    }
  }

  Rng& rng_;
  const RandomProgramOptions& opt_;
  std::size_t budget_;
  std::vector<std::string> vars_;
};

}  // namespace

Graph random_program(Rng& rng, const RandomProgramOptions& options) {
  return Generator(rng, options).run();
}

lang::Program random_program_ast(Rng& rng,
                                 const RandomProgramOptions& options) {
  return AstGenerator(rng, options).run();
}

}  // namespace parcm
