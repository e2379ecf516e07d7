// Experiment C3 — end-to-end transformation cost: PCM is "composed of only
// two unidirectional bitvector data-flow analyses" and "similarly efficient"
// to sequential BCM. Measures the full pipeline (join splitting, term
// collection, both analyses, placement) on random and family programs, and
// the default pass pipeline per pass on the large-program family and on the
// pooled batch corpus.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_support.hpp"

#include "lang/lower.hpp"
#include "motion/bcm.hpp"
#include "motion/pcm.hpp"
#include "motion/pipeline.hpp"
#include "obs/remarks.hpp"
#include "verify/fuzz.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

void BM_BcmPipelineSequential(benchmark::State& state) {
  Graph g = families::seq_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    MotionResult r = busy_code_motion(g);
    benchmark::DoNotOptimize(r.graph.num_nodes());
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
}
BENCHMARK(BM_BcmPipelineSequential)->Range(64, 4096);

void BM_PcmPipelineParallel(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Graph g = families::par_wide(4, n / 4);
  for (auto _ : state) {
    MotionResult r = parallel_code_motion(g);
    benchmark::DoNotOptimize(r.graph.num_nodes());
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
}
BENCHMARK(BM_PcmPipelineParallel)->Range(64, 4096);

void BM_PcmPipelineRandom(benchmark::State& state) {
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  RandomProgramOptions opt;
  opt.target_stmts = 200;
  opt.max_par_depth = 3;
  Graph g = random_program(rng, opt);
  for (auto _ : state) {
    MotionResult r = parallel_code_motion(g);
    benchmark::DoNotOptimize(r.graph.num_nodes());
  }
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
}
BENCHMARK(BM_PcmPipelineRandom)->DenseRange(1, 4);

// The default pipeline (pcm -> constprop -> sinking -> dce, validating
// between passes) over `inputs`, once each per iteration. The *_ms counters
// are per-pass wall times summed over the inputs and averaged over the
// iterations. `relaxations` (motion.liveness.relaxations, DCE's per-round
// liveness solves) and `constprop_relaxations`
// (analysis.constprop.relaxations) are one iteration's deterministic
// counts, which check_bench_regression.py gates hard. They come from the
// PassStats counter deltas, so they read 0 when the library is built with
// PARCM_OBS=OFF. `constprop_nodes` is the size of the graphs constprop ran
// on (pcm's output): on a loop-free input the solve relaxes each node at
// most once.
void run_default_pipeline(benchmark::State& state,
                          const std::vector<Graph>& inputs) {
  Pipeline pipeline = default_pipeline();
  std::map<std::string, double> pass_ms;
  std::uint64_t relaxations = 0, constprop_relaxations = 0;
  std::size_t constprop_nodes = 0;
  for (auto _ : state) {
    relaxations = 0;
    constprop_relaxations = 0;
    constprop_nodes = 0;
    for (const Graph& g : inputs) {
      PipelineResult r = pipeline.run(g);
      for (const PassStats& p : r.passes) {
        pass_ms[p.name] += p.wall_ms;
        relaxations += p.counter("motion.liveness.relaxations");
        constprop_relaxations += p.counter("analysis.constprop.relaxations");
        if (p.name == "constprop") constprop_nodes += p.nodes_before;
      }
      benchmark::DoNotOptimize(r.graph.num_nodes());
    }
  }
  double iterations = static_cast<double>(state.iterations());
  for (const char* pass : {"pcm", "constprop", "sinking", "dce"}) {
    state.counters[std::string(pass) + "_ms"] = pass_ms[pass] / iterations;
  }
  std::size_t nodes = 0;
  for (const Graph& g : inputs) nodes += g.num_nodes();
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["relaxations"] = static_cast<double>(relaxations);
  state.counters["constprop_relaxations"] =
      static_cast<double>(constprop_relaxations);
  state.counters["constprop_nodes"] = static_cast<double>(constprop_nodes);
}

// large_family(segments, 1): 202, 802 and 3202 nodes.
void BM_DefaultPipelineLarge(benchmark::State& state) {
  run_default_pipeline(
      state, {families::large_family(static_cast<std::size_t>(state.range(0)),
                                     1)});
}
BENCHMARK(BM_DefaultPipelineLarge)->Arg(10)->Arg(40)->Arg(160)
    ->Unit(benchmark::kMillisecond);

// The first 200 programs of the pooled batch corpus
// (fuzz_program_pooled(47705, i, 200): 200 distinct small shapes), the
// workload of parcm_batch --gen 2000 --gen-shapes 200 --gen-seed 47705.
void BM_DefaultPipelineCorpus(benchmark::State& state) {
  std::vector<Graph> inputs;
  for (std::size_t i = 0; i < 200; ++i) {
    inputs.push_back(lang::lower(verify::fuzz_program_pooled(
        47705, i, 200, verify::default_fuzz_gen())));
  }
  run_default_pipeline(state, inputs);
}
BENCHMARK(BM_DefaultPipelineCorpus)->Unit(benchmark::kMillisecond);

void BM_NaiveVsRefinedAnalysisCost(benchmark::State& state) {
  // The refinements are free: same two passes, only the synchronization
  // step differs.
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Graph g = families::par_wide(4, n / 4);
  bool refined = state.range(1) != 0;
  for (auto _ : state) {
    MotionResult r = refined ? parallel_code_motion(g)
                             : naive_parallel_code_motion(g);
    benchmark::DoNotOptimize(r.graph.num_nodes());
  }
}
BENCHMARK(BM_NaiveVsRefinedAnalysisCost)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({2048, 0})
    ->Args({2048, 1});

// Remark-provenance overhead guard: the remark layer promises < 5% cost on
// the end-to-end pipeline when recording is on (and ~zero when the sink is
// disabled — the macros cost a single predictable branch). Off/on runs are
// interleaved so machine drift hits both sides of the ratio equally, and
// the minimum over the pairs estimates the noise-free cost. Only the best
// iteration is judged: a genuinely fast run under the budget proves the
// instrumentation is cheap, while a busy machine merely inflates the other
// iterations. An absolute floor avoids flagging sub-noise deltas on tiny
// inputs. Violations surface as a failed benchmark (SkipWithError), so
// `ctest -C bench -L bench` turns red.
void BM_RemarkOverheadGuard(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Graph g = families::par_wide(4, n / 4);

  obs::RemarkSink sink;
  obs::RemarkSink* prev = obs::set_remark_sink(&sink);
  auto run_once = [&](bool with_remarks) {
    sink.clear();
    sink.set_enabled(with_remarks);
    auto start = std::chrono::steady_clock::now();
    MotionResult r = parallel_code_motion(g);
    benchmark::DoNotOptimize(r.graph.num_nodes());
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  constexpr int kPairs = 12;
  constexpr double kMaxOverheadPct = 5.0;
  constexpr double kNoiseFloorMs = 0.05;
  double best_pct = std::numeric_limits<double>::infinity();
  double best_delta_ms = std::numeric_limits<double>::infinity();
  run_once(false);
  run_once(true);  // warm caches before the paired measurement
  for (auto _ : state) {
    double off_ms = std::numeric_limits<double>::infinity();
    double on_ms = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kPairs; ++i) {
      off_ms = std::min(off_ms, run_once(false));
      on_ms = std::min(on_ms, run_once(true));
    }
    double pct = off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
    if (pct < best_pct) {
      best_pct = pct;
      best_delta_ms = on_ms - off_ms;
    }
    state.counters["remarks"] = static_cast<double>(sink.size());
    state.counters["overhead_pct"] = pct;
  }
  obs::set_remark_sink(prev);
  state.counters["best_overhead_pct"] = best_pct;
  if (best_delta_ms > kNoiseFloorMs && best_pct > kMaxOverheadPct) {
    state.SkipWithError("remark overhead exceeds 5% of pipeline time");
  }
}
BENCHMARK(BM_RemarkOverheadGuard)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace parcm

PARCM_BENCH_MAIN("bench_pipeline")
