// Ablation benches for the design choices called out in DESIGN.md:
//  - BCM vs LCM on sequential programs (temporary lifetimes — the register
//    pressure argument for laziness),
//  - PCM with and without anchor sinking / privatization (cost of the
//    soundness and profitability machinery),
//  - analysis-only vs full-transformation split.
#include <benchmark/benchmark.h>

#include "bench_support.hpp"

#include "motion/bcm.hpp"
#include "motion/lcm.hpp"
#include "motion/pcm.hpp"
#include "workload/families.hpp"
#include "workload/randomprog.hpp"

namespace parcm {
namespace {

void BM_BcmTempLifetime(benchmark::State& state) {
  Graph g = families::seq_chain(static_cast<std::size_t>(state.range(0)));
  std::size_t lifetime = 0;
  for (auto _ : state) {
    MotionResult r = busy_code_motion(g);
    lifetime = total_temp_lifetime(r.graph);
    benchmark::DoNotOptimize(lifetime);
  }
  state.counters["lifetime"] = static_cast<double>(lifetime);
}
BENCHMARK(BM_BcmTempLifetime)->Range(64, 1024);

void BM_LcmTempLifetime(benchmark::State& state) {
  Graph g = families::seq_chain(static_cast<std::size_t>(state.range(0)));
  std::size_t lifetime = 0;
  for (auto _ : state) {
    MotionResult r = lazy_code_motion(g);
    lifetime = total_temp_lifetime(r.graph);
    benchmark::DoNotOptimize(lifetime);
  }
  state.counters["lifetime"] = static_cast<double>(lifetime);
}
BENCHMARK(BM_LcmTempLifetime)->Range(64, 1024);

void run_pcm_config(benchmark::State& state, bool sink, bool privatize) {
  Graph g = families::par_wide(4, 64);
  CodeMotionConfig cfg;
  cfg.sink_anchors = sink;
  cfg.privatize_temps = privatize;
  std::size_t inserts = 0;
  for (auto _ : state) {
    MotionResult r = run_code_motion(g, cfg);
    inserts = r.num_insertions();
    benchmark::DoNotOptimize(r.graph.num_nodes());
  }
  state.counters["insertions"] = static_cast<double>(inserts);
}

void BM_PcmFull(benchmark::State& state) { run_pcm_config(state, true, true); }
void BM_PcmNoSinking(benchmark::State& state) {
  run_pcm_config(state, false, true);
}
void BM_PcmNoPrivatization(benchmark::State& state) {
  run_pcm_config(state, true, false);
}
BENCHMARK(BM_PcmFull);
BENCHMARK(BM_PcmNoSinking);
BENCHMARK(BM_PcmNoPrivatization);

}  // namespace
}  // namespace parcm

PARCM_BENCH_MAIN("bench_ablation")
