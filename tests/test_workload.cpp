#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "ir/printer.hpp"
#include "ir/terms.hpp"
#include "ir/validate.hpp"
#include "lang/lower.hpp"
#include "lang/unparse.hpp"
#include "verify/fuzz.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

TEST(RandomProgram, AlwaysWellFormed) {
  RandomProgramOptions opt;
  opt.max_par_depth = 2;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    Graph g = random_program(rng, opt);
    DiagnosticSink sink;
    EXPECT_TRUE(validate(g, sink)) << "seed " << seed << "\n"
                                   << sink.to_string();
  }
}

TEST(RandomProgram, DeterministicPerSeed) {
  RandomProgramOptions opt;
  Rng r1(42), r2(42);
  Graph a = random_program(r1, opt);
  Graph b = random_program(r2, opt);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_par_stmts(), b.num_par_stmts());
  for (NodeId n : a.all_nodes()) {
    EXPECT_EQ(a.node(n).kind, b.node(n).kind);
  }
}

TEST(RandomProgram, SequentialModeHasNoParStmts) {
  RandomProgramOptions opt;
  opt.max_par_depth = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    EXPECT_EQ(random_program(rng, opt).num_par_stmts(), 0u);
  }
}

TEST(RandomProgram, ParallelStatementsAppear) {
  RandomProgramOptions opt;
  opt.max_par_depth = 2;
  opt.par_permille = 400;
  std::size_t with_par = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    with_par += random_program(rng, opt).num_par_stmts() > 0;
  }
  EXPECT_GT(with_par, 25u);
}

TEST(RandomProgram, BudgetBoundsSize) {
  RandomProgramOptions opt;
  opt.target_stmts = 6;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    Graph g = random_program(rng, opt);
    // Structural overhead (entries, joins, par begin/end) is bounded by a
    // small multiple of the statement budget.
    EXPECT_LT(g.num_nodes(), 6u * 8u);
  }
}

TEST(RandomProgram, AlwaysHasAtLeastOneTerm) {
  RandomProgramOptions opt;
  opt.trivial_permille = 1000;  // all assignments trivial...
  Rng rng(5);
  Graph g = random_program(rng, opt);
  TermTable terms(g);
  EXPECT_GE(terms.size(), 1u);  // ...except the guaranteed final term
}

TEST(RandomProgramAst, AlwaysLowerableAndWellFormed) {
  RandomProgramOptions opt = verify::default_fuzz_gen();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    lang::Program p = random_program_ast(rng, opt);
    Graph g = lang::lower(p);
    DiagnosticSink sink;
    EXPECT_TRUE(validate(g, sink)) << "seed " << seed << "\n"
                                   << sink.to_string();
  }
}

TEST(RandomProgramAst, SameSeedIsByteIdentical) {
  // The reproducer contract at the source level: two independent generator
  // runs from the same seed render to the same bytes.
  RandomProgramOptions opt = verify::default_fuzz_gen();
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng r1(seed), r2(seed);
    std::string a = lang::to_source(random_program_ast(r1, opt));
    std::string b = lang::to_source(random_program_ast(r2, opt));
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(RandomProgramAst, FuzzStreamBytesArePinned) {
  // The fuzz stream is a fixed byte sequence, not whatever this build's
  // compiler makes of it: every draw is sequenced, so these renderings
  // (FNV-1a of lang::to_source, and the closing statement, whose variable
  // is drawn after its term) hold on any compiler and platform. Both are
  // inputs of e2e_bench's corpus workload.
  auto fnv1a = [](const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325uLL;
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3uLL;
    }
    return h;
  };
  struct Pinned {
    std::uint64_t campaign;
    std::size_t index;
    std::uint64_t hash;
    std::size_t bytes;
    const char* last;
  };
  for (const Pinned& p :
       {Pinned{47705, 101, 0xb2e051d3027c8bbfuLL, 447, "v0 := 2 * v1;\n"},
        Pinned{42, 239, 0xfeaa684f85ddb82buLL, 524, "v2 := v0 + v0;\n"}}) {
    std::string src = lang::to_source(
        verify::fuzz_program(p.campaign, p.index, verify::default_fuzz_gen()));
    EXPECT_EQ(src.size(), p.bytes) << p.campaign << "/" << p.index;
    EXPECT_EQ(fnv1a(src), p.hash) << p.campaign << "/" << p.index;
    EXPECT_EQ(src.substr(src.rfind('\n', src.size() - 2) + 1), p.last)
        << src;
  }
}

TEST(RandomProgramAst, PitfallShapesAppearWhenEnabled) {
  RandomProgramOptions opt = verify::default_fuzz_gen();
  opt.p2_shape_permille = 400;
  opt.p3_shape_permille = 400;
  std::size_t with_par = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    lang::Program p = random_program_ast(rng, opt);
    with_par += lang::lower(p).num_par_stmts() > 0;
  }
  EXPECT_GT(with_par, 20u);
}

// Cross-process byte-identity: run the built parcm_fuzz binary twice with
// the same seed and compare the dumped program bytes. This is the strong
// form of the determinism contract — no shared in-process state can help.
TEST(RandomProgramAst, SameSeedIsByteIdenticalAcrossProcesses) {
#ifndef PARCM_FUZZ_BIN
  GTEST_SKIP() << "parcm_fuzz binary path not configured";
#else
  auto run = [](const std::string& cmd) {
    std::string out;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
    pclose(pipe);
    return out;
  };
  const std::string base = std::string(PARCM_FUZZ_BIN);
  for (const char* args : {" --seed 42 --dump-program --index 0",
                           " --seed 42 --dump-program --index 9",
                           " --seed 1234 --dump-program --index 3"}) {
    std::string a = run(base + args);
    std::string b = run(base + args);
    ASSERT_FALSE(a.empty()) << args;
    EXPECT_EQ(a, b) << args;
  }
#endif
}

TEST(Families, Fig2FamilyShape) {
  Graph g = families::fig2_family(4);
  validate_or_throw(g);
  EXPECT_EQ(g.num_par_stmts(), 1u);
}

TEST(Families, Fig10FamilyShape) {
  Graph g = families::fig10_family(2);
  validate_or_throw(g);
  EXPECT_EQ(g.num_par_stmts(), 1u);
}

TEST(Families, SeqChainSize) {
  Graph g = families::seq_chain(50, 4);
  validate_or_throw(g);
  EXPECT_EQ(g.num_par_stmts(), 0u);
  EXPECT_GT(g.num_nodes(), 50u);
}

TEST(Families, ParWideComponents) {
  Graph g = families::par_wide(4, 5);
  validate_or_throw(g);
  EXPECT_EQ(g.par_stmt(ParStmtId(0)).components.size(), 4u);
}

TEST(Families, ParNestedDepth) {
  Graph g = families::par_nested(3, 2);
  validate_or_throw(g);
  EXPECT_EQ(g.num_par_stmts(), 3u);
}

TEST(Families, LargeFamilySizeAndDeterminism) {
  for (std::size_t segments : {1u, 10u, 40u, 160u}) {
    Graph g = families::large_family(segments, 7);
    validate_or_throw(g);
    EXPECT_EQ(g.num_nodes(), 20 * segments + 2);
    EXPECT_EQ(g.num_par_stmts(), segments);
    EXPECT_LE(g.num_vars(), 10u);
    EXPECT_EQ(to_text(g), to_text(families::large_family(segments, 7)));
  }
  EXPECT_NE(to_text(families::large_family(10, 7)),
            to_text(families::large_family(10, 8)));
}

}  // namespace
}  // namespace parcm
