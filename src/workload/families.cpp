#include "workload/families.hpp"

#include <functional>
#include <string>

#include "ir/builder.hpp"
#include "support/rng.hpp"

namespace parcm::families {

namespace {

// x_i := a_j + b_j cycling j over the term pool.
void emit_chain(GraphBuilder& b, std::size_t n, std::size_t term_pool,
                const std::string& prefix) {
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = i % term_pool;
    b.assign(prefix + "x" + std::to_string(i % 7),
             b.v("a" + std::to_string(j)), BinOp::kAdd,
             b.v("b" + std::to_string(j)));
  }
}

}  // namespace

Graph fig2_family(std::size_t bottleneck) {
  GraphBuilder b;
  b.assign("b", GraphBuilder::c(1));
  b.assign("c", GraphBuilder::c(2));
  b.par({[&] { b.assign("x", b.v("c"), BinOp::kAdd, b.v("b")); },
         [&] {
           for (std::size_t i = 0; i < bottleneck; ++i) {
             b.assign("u", b.v("u"), BinOp::kAdd, GraphBuilder::c(1));
           }
         }});
  b.assign("d", b.v("c"), BinOp::kAdd, b.v("b"));
  return b.finish();
}

Graph fig10_family(std::size_t loops_per_component) {
  GraphBuilder b;
  for (char v : {'a', 'b', 'g', 'h', 'j', 'k'}) {
    b.assign(std::string(1, v), GraphBuilder::c(v));
  }
  auto component = [&](const std::string& inv_lhs, const std::string& op1,
                       const std::string& op2, std::size_t loops) {
    b.assign("q_" + inv_lhs, b.v("a"), BinOp::kAdd, b.v("b"));
    for (std::size_t l = 0; l < loops; ++l) {
      b.while_nondet([&, l] {
        b.assign(inv_lhs + std::to_string(l), b.v(op1), BinOp::kAdd, b.v(op2));
      });
    }
  };
  b.par({[&] { component("r", "g", "h", loops_per_component); },
         [&] { component("u", "j", "k", loops_per_component); }});
  b.assign("w", b.v("a"), BinOp::kAdd, b.v("b"));
  return b.finish();
}

Graph seq_chain(std::size_t n, std::size_t term_pool) {
  GraphBuilder b;
  for (std::size_t j = 0; j < term_pool; ++j) {
    b.assign("a" + std::to_string(j), GraphBuilder::c(static_cast<int>(j)));
    b.assign("b" + std::to_string(j),
             GraphBuilder::c(static_cast<int>(j) + 1));
  }
  emit_chain(b, n, term_pool, "");
  return b.finish();
}

Graph par_wide(std::size_t components, std::size_t len,
               std::size_t term_pool) {
  GraphBuilder b;
  for (std::size_t j = 0; j < term_pool; ++j) {
    b.assign("a" + std::to_string(j), GraphBuilder::c(static_cast<int>(j)));
    b.assign("b" + std::to_string(j),
             GraphBuilder::c(static_cast<int>(j) + 1));
  }
  std::vector<GraphBuilder::BlockFn> comps;
  for (std::size_t c = 0; c < components; ++c) {
    comps.push_back([&b, c, len, term_pool] {
      emit_chain(b, len, term_pool, "c" + std::to_string(c) + "_");
    });
  }
  b.par(comps);
  b.assign("w", b.v("a0"), BinOp::kAdd, b.v("b0"));
  return b.finish();
}

Graph par_nested(std::size_t depth, std::size_t len) {
  GraphBuilder b;
  b.assign("a0", GraphBuilder::c(1));
  b.assign("b0", GraphBuilder::c(2));
  std::function<void(std::size_t)> nest = [&](std::size_t d) {
    if (d == 0) {
      emit_chain(b, len, 1, "d" + std::to_string(d) + "_");
      return;
    }
    b.par({[&, d] { nest(d - 1); },
           [&, d] { emit_chain(b, len, 1, "s" + std::to_string(d) + "_"); }});
  };
  nest(depth);
  return b.finish();
}

Graph large_family(std::size_t segments, std::uint64_t seed) {
  GraphBuilder b;
  // Interned up front so variable ids do not depend on argument evaluation
  // order below.
  for (int v = 0; v < 10; ++v) b.var("v" + std::to_string(v));
  Rng rng(seed);
  auto var = [&rng] { return "v" + std::to_string(rng.below(10)); };
  auto block = [&] {
    for (int k = 0; k < 4; ++k) {
      std::string x = var(), lhs = var(), rhs = var();
      b.assign(x, b.v(lhs), BinOp::kAdd, b.v(rhs));
    }
  };
  for (std::size_t s = 0; s < segments; ++s) {
    block();
    b.par({block, block});
    block();
  }
  return b.finish();
}

}  // namespace parcm::families
