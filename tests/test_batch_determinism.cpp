// Batch-driver determinism suite (ctest -L batch).
//
// The contract under test: driver::run_batch processes every program with
// exactly the single-thread observability semantics (per-worker Registry /
// RemarkSink / AnalysisCache thread overrides), so the timing-free report —
// per-program optimized output, remark streams, node/action counts,
// verdicts — is byte-identical at any --jobs value and whichever worker
// happens to claim which program.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "analyses/cache.hpp"
#include "driver/driver.hpp"
#include "driver/manifest.hpp"
#include "lang/unparse.hpp"
#include "obs/trace.hpp"
#include "verify/fuzz.hpp"

namespace parcm {
namespace {

// The 64-program corpus every determinism test runs: the fuzz stream of
// campaign seed 2026 (deterministic bytes on any platform).
driver::Manifest corpus64() {
  RandomProgramOptions gen = verify::default_fuzz_gen();
  return driver::Manifest::lazy(64, "corpus", [gen](std::size_t i) {
    return lang::to_source(verify::fuzz_program(2026, i, gen));
  });
}

// Timing-free payload: everything schedule-dependent is excluded, so this
// string must be byte-identical across job counts and schedules.
std::string payload(const driver::BatchReport& r) {
  return r.to_json(/*pretty=*/false, /*include_timing=*/false);
}

// 48 programs drawn from a pool of 8 shapes (variables renamed per
// repetition): the corpus where the shared analysis cache actually fires,
// and therefore where cache state could most plausibly leak into outputs.
driver::Manifest pooled_corpus() {
  RandomProgramOptions gen = verify::default_fuzz_gen();
  return driver::Manifest::lazy(48, "pool", [gen](std::size_t i) {
    return lang::to_source(verify::fuzz_program_pooled(2027, i, 8, gen));
  });
}

// The tentpole's hard constraint: on a duplicate-shape corpus the payload
// is one fixed byte string across jobs 1/4/16 crossed with shared cache
// off, on-and-cold, and on-and-pre-warmed. A hit must be indistinguishable
// from a rebuild in every payload byte (outputs, remark lines, counts).
TEST(BatchDeterminism, SharedCacheModesKeepPayloadByteIdentical) {
  driver::Manifest m = pooled_corpus();
  driver::BatchOptions opt;
  opt.keep_remark_lines = true;
  std::string reference;
  auto check = [&](driver::BatchOptions& o, const char* mode) {
    driver::BatchReport report = driver::run_batch(m, o);
    EXPECT_EQ(report.totals.done, 48u);
    if (reference.empty()) {
      reference = payload(report);
    } else {
      EXPECT_EQ(payload(report), reference)
          << mode << " jobs=" << o.jobs;
    }
    return report;
  };
  opt.shared_cache = false;
  for (std::size_t jobs : {1u, 4u, 16u}) {
    opt.jobs = jobs;
    check(opt, "shared-cache off");
  }
  opt.shared_cache = true;
  for (std::size_t jobs : {1u, 4u, 16u}) {
    SharedAnalysisCache cold;  // fresh instance: every run starts cold
    opt.shared_cache_instance = &cold;
    opt.jobs = jobs;
    check(opt, "shared-cache cold");
  }
  SharedAnalysisCache warm;  // reused: later runs face a fully hot cache
  opt.shared_cache_instance = &warm;
  for (std::size_t jobs : {1u, 4u, 16u}) {
    opt.jobs = jobs;
    driver::BatchReport report = check(opt, "shared-cache warm");
#if PARCM_OBS_ENABLED
    if (jobs > 1) {
      // The hot runs really are exercising the shared tier, not silently
      // missing it.
      EXPECT_GT(report.counters["analysis.shared_cache.hits"], 0u);
    }
#endif
  }
}

// Schedule regression on the duplicate-shape corpus: with the shared tier
// hot, which worker acquires a shape first depends on thread timing, and
// four repeated 8-worker runs see different timings — the remark stream
// (sink-epoch emission) must not depend on it.
TEST(BatchDeterminism, DuplicateShapesByteIdenticalAcrossStealOrders) {
  driver::Manifest m = pooled_corpus();
  driver::BatchOptions opt;
  opt.jobs = 8;
  opt.keep_remark_lines = true;
  SharedAnalysisCache shared;
  opt.shared_cache_instance = &shared;
  std::string reference;
  for (int run = 0; run < 4; ++run) {
    driver::BatchReport report = driver::run_batch(m, opt);
    EXPECT_EQ(report.totals.done, 48u);
    if (reference.empty()) {
      reference = payload(report);
    } else {
      EXPECT_EQ(payload(report), reference) << "run " << run;
    }
  }
}

TEST(BatchDeterminism, ByteIdenticalAcrossJobCounts) {
  driver::Manifest m = corpus64();
  driver::BatchOptions opt;
  opt.keep_remark_lines = true;  // diff the remark streams too
  std::string reference;
  for (std::size_t jobs : {1u, 4u, 16u}) {
    opt.jobs = jobs;
    driver::BatchReport report = driver::run_batch(m, opt);
    EXPECT_EQ(report.totals.submitted, 64u);
    EXPECT_EQ(report.totals.done, 64u);
    EXPECT_TRUE(report.ok());
    if (reference.empty()) {
      reference = payload(report);
#if PARCM_OBS_ENABLED
      // Only meaningful when remark instrumentation is compiled in.
      EXPECT_NE(reference.find("\"remarks\""), std::string::npos);
#endif
    } else {
      EXPECT_EQ(payload(report), reference) << "jobs=" << jobs;
    }
  }
}

TEST(BatchDeterminism, ValidatedRunMatchesAcrossJobs) {
  RandomProgramOptions gen = verify::default_fuzz_gen();
  gen.target_stmts = 6;  // keep the oracle cheap
  driver::Manifest m = driver::Manifest::lazy(16, "v", [gen](std::size_t i) {
    return lang::to_source(verify::fuzz_program(7, i, gen));
  });
  driver::BatchOptions opt;
  opt.validate = true;
  opt.budget.max_states = 32768;
  opt.jobs = 1;
  driver::BatchReport a = driver::run_batch(m, opt);
  opt.jobs = 4;
  driver::BatchReport b = driver::run_batch(m, opt);
  EXPECT_EQ(a.validation_failures, 0u);
  EXPECT_EQ(payload(a), payload(b));
}

TEST(BatchDeterminism, MergedCountersMatchSequentialRun) {
  driver::Manifest m = corpus64();
  driver::BatchOptions opt;
  // Shared-tier traffic is schedule-dependent by design (which worker gets
  // the first instance of a shape decides who builds and who hits), so the
  // counter-sum invariant holds only with the tier off: pin it off.
  opt.shared_cache = false;
  opt.jobs = 1;
  driver::BatchReport seq = driver::run_batch(m, opt);
  opt.jobs = 8;
  driver::BatchReport par = driver::run_batch(m, opt);
  // Aggregated counters are sums of per-program deltas, so scheduling must
  // not change them.
  EXPECT_EQ(seq.counters, par.counters);
}

// Registry cardinality is bounded by the source, not by the corpus: a
// batch four times as long reports exactly the same counter names. Each
// run gets its own cold shared tier, so both see its builds and hits.
TEST(BatchDeterminism, CounterNamesIndependentOfCorpusSize) {
  RandomProgramOptions gen = verify::default_fuzz_gen();
  auto counter_names = [&gen](std::size_t programs) {
    driver::Manifest m =
        driver::Manifest::lazy(programs, "gen", [gen](std::size_t i) {
          return lang::to_source(
              verify::fuzz_program_pooled(47705, i, 200, gen));
        });
    SharedAnalysisCache shared;
    driver::BatchOptions opt;
    opt.jobs = 2;
    opt.shared_cache_instance = &shared;
    driver::BatchReport report = driver::run_batch(m, opt);
    EXPECT_EQ(report.totals.done, programs);
    std::set<std::string> names;
    for (const auto& [name, value] : report.counters) names.insert(name);
    return names;
  };
  EXPECT_EQ(counter_names(250), counter_names(1000));
}

// The report's cache fields, which the bench gate's cache_hit_rate floor
// reads: every acquisition counts as a miss, the shared tier builds each of
// the corpus's 200 shapes once, and without the tier every acquisition
// builds. One pcm acquisition per program under the full pipeline.
TEST(BatchDeterminism, CacheReportFieldsOnPooledCorpus) {
#if PARCM_OBS_ENABLED
  RandomProgramOptions gen = verify::default_fuzz_gen();
  driver::Manifest m = driver::Manifest::lazy(400, "gen", [gen](std::size_t i) {
    return lang::to_source(verify::fuzz_program_pooled(47705, i, 200, gen));
  });
  driver::BatchOptions opt;
  opt.jobs = 1;
  SharedAnalysisCache shared;
  opt.shared_cache_instance = &shared;
  driver::BatchReport tiered = driver::run_batch(m, opt);
  EXPECT_EQ(tiered.totals.done, 400u);
  EXPECT_EQ(tiered.cache_hits, 0u);
  EXPECT_EQ(tiered.cache_misses, 400u);
  EXPECT_EQ(tiered.cache_builds, 200u);
  EXPECT_DOUBLE_EQ(tiered.cache_hit_rate, 0.5);

  opt.shared_cache = false;
  driver::BatchReport untiered = driver::run_batch(m, opt);
  EXPECT_EQ(untiered.cache_hits, 0u);
  EXPECT_EQ(untiered.cache_misses, 400u);
  EXPECT_EQ(untiered.cache_builds, 400u);
  EXPECT_DOUBLE_EQ(untiered.cache_hit_rate, 0.0);
#else
  GTEST_SKIP() << "instrumentation compiled out (PARCM_OBS=OFF)";
#endif
}

TEST(BatchDeterminism, TraceEnabledRunsStayByteIdentical) {
#if PARCM_OBS_ENABLED
  // Tracing records wall times, but none of them may leak into the
  // timing-free payload: runs with the sink hot must stay byte-identical
  // to each other at any jobs value.
  driver::Manifest m = corpus64();
  driver::BatchOptions opt;
  obs::trace().set_enabled(true);
  std::string reference;
  for (std::size_t jobs : {1u, 4u, 16u}) {
    obs::trace().clear();
    opt.jobs = jobs;
    driver::BatchReport report = driver::run_batch(m, opt);
    EXPECT_EQ(report.totals.done, 64u);
    // Every run actually recorded spans (main plus the worker tracks).
    EXPECT_GE(obs::trace().tracks().size(), jobs);
    EXPECT_FALSE(obs::trace().spans().empty());
    if (reference.empty()) {
      reference = payload(report);
    } else {
      EXPECT_EQ(payload(report), reference) << "jobs=" << jobs;
    }
  }
  obs::trace().clear();
  obs::trace().set_enabled(false);
#else
  GTEST_SKIP() << "instrumentation compiled out (PARCM_OBS=OFF)";
#endif
}

// --- Manifest coverage ---------------------------------------------------

TEST(Manifest, FromSourcesAndLazyResolveText) {
  driver::Manifest s = driver::Manifest::from_sources(
      {{"a", "x := 1;"}, {"b", "y := 2;"}});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.jobs[0].text(), "x := 1;");
  EXPECT_EQ(s.jobs[0].size_hint, 7u);
  driver::Manifest l = driver::Manifest::lazy(
      3, "p", [](std::size_t i) { return "z := " + std::to_string(i) + ";"; });
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l.jobs[2].id, "p#2");
  EXPECT_EQ(l.jobs[2].text(), "z := 2;");
}

TEST(Manifest, DirectoryAndManifestFileEnumeration) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "parcm_manifest_test";
  fs::create_directories(dir);
  std::ofstream(dir / "b.parcm") << "y := 2;";
  std::ofstream(dir / "a.parcm") << "x := 1;";
  std::ofstream(dir / "ignored.txt") << "not a program";
  driver::Manifest d = driver::Manifest::from_directory(dir.string());
  ASSERT_EQ(d.size(), 2u);  // sorted, .parcm only
  EXPECT_NE(d.jobs[0].id.find("a.parcm"), std::string::npos);

  std::ofstream(dir / "list.txt") << "# comment\na.parcm\nb.parcm  # inline\n";
  driver::Manifest m = driver::Manifest::from_file((dir / "list.txt").string());
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.jobs[1].text(), "y := 2;");
  // A single .parcm path is one program, not a manifest listing.
  driver::Manifest one = driver::Manifest::from_path((dir / "a.parcm").string());
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.jobs[0].text(), "x := 1;");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace parcm
