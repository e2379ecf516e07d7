// Structural keys and the process-wide shared analysis tier.
//
// Covers the contracts the batch driver's byte-identity guarantee leans on:
// structural_hash is invariant under rebuilds and renames but sensitive to
// any structural perturbation; a 64-bit hash collision is rejected by the
// full-key compare and never serves (or evicts) a wrong entry; two worker
// caches pointed at one shared tier return the same immutable artifacts;
// and acquisition remarks are emitted once per content per sink epoch
// regardless of which tier satisfied the acquire.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analyses/cache.hpp"
#include "lang/lower.hpp"
#include "lang/unparse.hpp"
#include "obs/remarks.hpp"
#include "verify/fuzz.hpp"

namespace parcm {
namespace {

// RAII installer for a private shared tier; restores the previous one so
// sibling tests (and the process default of "no tier") are unaffected.
struct SharedTierScope {
  explicit SharedTierScope(SharedAnalysisCache* c)
      : prev_(set_thread_shared_analysis_cache(c)) {}
  ~SharedTierScope() { set_thread_shared_analysis_cache(prev_); }
  SharedAnalysisCache* prev_;
};

struct ThreadSinkScope {
  explicit ThreadSinkScope(obs::RemarkSink* s)
      : prev_(obs::set_thread_remark_sink(s)) {}
  ~ThreadSinkScope() { obs::set_thread_remark_sink(prev_); }
  obs::RemarkSink* prev_;
};

TEST(StructuralHash, StableAcrossRebuilds) {
  const char* src = "b := 1; x := a + b; y := a + b;";
  Graph g1 = lang::compile_or_throw(src);
  Graph g2 = lang::compile_or_throw(src);
  EXPECT_EQ(structural_hash(g1), structural_hash(g2));
  EXPECT_EQ(structural_key(g1), structural_key(g2));
}

TEST(StructuralHash, InvariantUnderUniformRenaming) {
  // Same shape, every variable renamed but first-occurrence order kept —
  // the analyses never look at names, so the keys must match.
  Graph g1 = lang::compile_or_throw("b := 1; x := a + b; y := a + b;");
  Graph g2 = lang::compile_or_throw("q := 1; r := p + q; s := p + q;");
  EXPECT_EQ(structural_key(g1), structural_key(g2));
}

TEST(StructuralHash, PooledProgramsShareOneKeyPerSlot) {
  // fuzz_program_pooled repeats shape (i mod K) with per-repetition
  // renaming: texts differ across repetitions, structural keys do not.
  RandomProgramOptions gen = verify::default_fuzz_gen();
  constexpr std::size_t kShapes = 4;
  std::vector<StructuralKey> base;
  std::vector<std::string> base_src;
  for (std::size_t i = 0; i < kShapes; ++i) {
    lang::Program p = verify::fuzz_program_pooled(2027, i, kShapes, gen);
    base_src.push_back(lang::to_source(p));
    base.push_back(structural_key(lang::compile_or_throw(base_src.back())));
  }
  for (std::size_t i = kShapes; i < 3 * kShapes; ++i) {
    lang::Program p = verify::fuzz_program_pooled(2027, i, kShapes, gen);
    std::string src = lang::to_source(p);
    EXPECT_NE(src, base_src[i % kShapes]) << "repetition " << i;
    Graph g = lang::compile_or_throw(src);
    EXPECT_EQ(structural_key(g), base[i % kShapes]) << "repetition " << i;
  }
}

TEST(StructuralHash, PerturbationsChangeTheKey) {
  Graph base = lang::compile_or_throw("b := 1; x := a + b; y := c + d;");
  StructuralKey base_key = structural_key(base);

  // Extra node.
  Graph extra = lang::compile_or_throw("b := 1; x := a + b; y := c + d; y := c + d;");
  EXPECT_NE(structural_key(extra), base_key);

  // Different operator in one rhs.
  Graph op = lang::compile_or_throw("b := 1; x := a - b; y := c + d;");
  EXPECT_NE(structural_key(op), base_key);

  // Different operand structure (operand indices shift with intern order).
  Graph swapped = lang::compile_or_throw("b := 1; y := c + d; x := a + b;");
  EXPECT_NE(structural_key(swapped), base_key);

  // Same statements wrapped in a parallel region: region structure counts.
  Graph par = lang::compile_or_throw(
      "b := 1;\npar {\n  x := a + b;\n} and {\n  y := c + d;\n}\n");
  EXPECT_NE(structural_key(par), base_key);

  // Sibling components swapped inside the par: component order counts.
  Graph par_swapped = lang::compile_or_throw(
      "b := 1;\npar {\n  y := c + d;\n} and {\n  x := a + b;\n}\n");
  EXPECT_NE(structural_key(par_swapped), structural_key(par));
}

TEST(SharedAnalysisCache, CollisionNeverServesOrEvictsTheIncumbent) {
  Graph g = lang::compile_or_throw("x := a + b;");
  auto incumbent = std::make_shared<const AnalysisBundle>(g);
  auto challenger = std::make_shared<const AnalysisBundle>(g);

  // Two keys with the same 64-bit hash but different pre-images: the
  // forced-collision path the full compare exists for.
  StructuralKey k1{0x1234, {1, 2, 3}};
  StructuralKey k2{0x1234, {9}};

  SharedAnalysisCache cache;
  cache.put_bundle(k1, incumbent);
  EXPECT_EQ(cache.find_bundle(k1).get(), incumbent.get());
  EXPECT_EQ(cache.find_bundle(k2), nullptr);  // never a wrong entry

  // A colliding put keeps the incumbent and drops the challenger.
  cache.put_bundle(k2, challenger);
  EXPECT_EQ(cache.find_bundle(k1).get(), incumbent.get());
  EXPECT_EQ(cache.find_bundle(k2), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find_bundle(k1), nullptr);
}

TEST(SharedAnalysisCache, TwoWorkerCachesShareOneBuild) {
  const char* src = "b := 1; x := a + b; y := a + b;";
  Graph g1 = lang::compile_or_throw(src);
  Graph g2 = lang::compile_or_throw(src);

  // Without a shared tier, each worker cache builds its own bundle.
  {
    AnalysisCache w1, w2;
    EXPECT_NE(w1.acquire(g1).get(), w2.acquire(g2).get());
  }

  // With one, the second worker hits the first worker's artifacts.
  SharedAnalysisCache shared;
  SharedTierScope tier(&shared);
  AnalysisCache w1, w2;
  auto b1 = w1.acquire(g1);
  auto b2 = w2.acquire(g2);
  EXPECT_EQ(b1.get(), b2.get());
  EXPECT_EQ(shared.size(), 1u);
}

#if PARCM_OBS_ENABLED
TEST(AcquisitionRemarks, OncePerEpochIdenticalAcrossTiers) {
  // A recursive assignment inside a parallel component trips the P2
  // recursive-split degradation remark on acquisition.
  const char* src = "u := 1;\npar {\n  u := u + 1;\n} and {\n  y := 1;\n}\n";
  Graph g = lang::compile_or_throw(src);

  obs::RemarkSink sink;
  sink.set_enabled(true);
  ThreadSinkScope sink_scope(&sink);

  AnalysisCache cache;
  cache.acquire(g);
  std::size_t first = sink.size();
  ASSERT_GT(first, 0u);

  // Same content again in the same epoch: deduped, even via a rebuild.
  cache.acquire(g);
  cache.acquire(lang::compile_or_throw(src));
  EXPECT_EQ(sink.size(), first);

  // clear() starts a new epoch: the same content re-emits.
  sink.clear();
  cache.acquire(g);
  EXPECT_EQ(sink.size(), first);

  // A shared-tier hit in a *fresh* worker emits the identical stream a
  // rebuild would — the property batch byte-identity depends on.
  SharedAnalysisCache shared;
  SharedTierScope tier(&shared);
  AnalysisCache builder;
  obs::RemarkSink build_sink;
  build_sink.set_enabled(true);
  {
    ThreadSinkScope s(&build_sink);
    builder.acquire(lang::compile_or_throw(src));  // populates the tier
  }
  AnalysisCache hitter;
  obs::RemarkSink hit_sink;
  hit_sink.set_enabled(true);
  {
    ThreadSinkScope s(&hit_sink);
    hitter.acquire(lang::compile_or_throw(src));  // shared-tier hit
  }
  EXPECT_EQ(shared.size(), 1u);
  EXPECT_EQ(build_sink.snapshot(), hit_sink.snapshot());
  EXPECT_GT(hit_sink.size(), 0u);
}
#endif  // PARCM_OBS_ENABLED

}  // namespace
}  // namespace parcm
