#include "driver/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <mutex>
#include <numeric>
#include <thread>

#include "analyses/cache.hpp"
#include "analyses/constprop.hpp"
#include "driver/forensic.hpp"
#include "driver/work_queue.hpp"
#include "ir/printer.hpp"
#include "lang/lower.hpp"
#include "motion/bcm.hpp"
#include "motion/dce.hpp"
#include "motion/lcm.hpp"
#include "motion/pcm.hpp"
#include "motion/pipeline.hpp"
#include "motion/sinking.hpp"
#include "obs/alloc.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/remarks.hpp"
#include "obs/trace.hpp"
#include "support/arena.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "verify/fuzz.hpp"

namespace parcm::driver {

namespace {

constexpr std::size_t kDefaultShardCap = 32;

Pipeline build_named_pipeline(const std::string& name) {
  return make_batch_pipeline(name);
}

}  // namespace

Pipeline make_batch_pipeline(const std::string& name) {
  if (name == "full") return default_pipeline();
  Pipeline p;
  if (name == "pcm") {
    p.add_pcm().add_validate();
  } else if (name == "naive") {
    p.add("naive", [](Graph& g, std::size_t* actions) {
      MotionResult r = naive_parallel_code_motion(g);
      *actions = r.num_insertions() + r.num_replacements();
      g = std::move(r.graph);
    });
    p.add_validate();
  } else if (name == "bcm") {
    p.add("bcm", [](Graph& g, std::size_t* actions) {
      MotionResult r = busy_code_motion(g);
      *actions = r.num_insertions() + r.num_replacements();
      g = std::move(r.graph);
    });
    p.add_validate();
  } else if (name == "lcm") {
    p.add("lcm", [](Graph& g, std::size_t* actions) {
      MotionResult r = lazy_code_motion(g);
      *actions = r.num_insertions() + r.num_replacements();
      g = std::move(r.graph);
    });
    p.add_validate();
  } else if (name == "sinking") {
    p.add_sinking().add_validate();
  } else if (name == "dce") {
    p.add_dce().add_validate();
  } else if (name == "constprop") {
    p.add_constprop().add_validate();
  } else {
    PARCM_CHECK(false, "unknown batch pipeline: " + name);
  }
  return p;
}

namespace {

void default_runner(const BatchJob& job, WorkerContext& ctx,
                    ProgramResult& result, const BatchOptions& options) {
  // Per-program bump arena for the IR containers (graphs, bit vectors,
  // region trees): everything graph-shaped built below dies before this
  // scope ends, so the whole job's IR churn is reclaimed wholesale here.
  // Result payload fields are plain strings (heap), and everything that
  // outlives the job — cached analysis bundles, shared-cache entries — is
  // built under an ArenaPauseScope by the cache, so nothing arena-backed
  // escapes. Scoped to the default runner only: custom runners own their
  // allocation story.
  Arena arena;
  ArenaScope arena_scope(arena);
  std::string source = job.text();
  ctx.check_deadline();
  DiagnosticSink diag;
  Graph g = lang::compile(source, diag);
  PARCM_CHECK(diag.ok(), "parse failed: " + diag.to_string());
  result.shape_hash = structural_hash(g);
  ctx.check_deadline();
  if (!options.inject_mode.empty()) {
    // Injected-miscompile path (forensics drills, oracle stress): the named
    // pipeline runs through the fuzzer's transformation entry point so one
    // of its safety ablations can be switched on, then faces the oracle
    // directly. Deterministic for fixed (source, pipeline, mode, budget) —
    // a forensic bundle recording this config replays byte-identically.
    verify::InjectOptions inject;
    inject.enabled = true;
    inject.mode = options.inject_mode;
    Graph out = verify::apply_named_pipeline(options.pipeline, g, inject);
    ctx.check_deadline();
    result.nodes_before = g.num_nodes();
    result.nodes_after = out.num_nodes();
    if (options.keep_output) result.output = to_text(out);
    if (options.validate) {
      std::vector<obs::Remark> remarks = obs::remarks().snapshot();
      verify::Verdict verdict =
          verify::differential_check(g, out, options.budget, &remarks);
      ctx.check_deadline();
      result.validation = verdict.summary();
      result.validation_ok = verdict.status != verify::Status::kDiverged;
    }
    return;
  }
  Pipeline pipeline = build_named_pipeline(options.pipeline);
  if (options.validate) pipeline.validate_semantics(options.budget);
  pipeline.on_pass_start(
      [&ctx](const std::string&) { ctx.check_deadline(); });
  PipelineResult res = pipeline.run(g);
  ctx.check_deadline();
  result.nodes_before = g.num_nodes();
  result.nodes_after = res.graph.num_nodes();
  for (const PassStats& ps : res.passes) {
    result.actions += ps.actions;
    result.pass_wall_ms.emplace_back(ps.name, ps.wall_ms);
  }
  if (options.keep_output) result.output = to_text(res.graph);
  if (res.validation.has_value()) {
    result.validation = res.validation->summary();
    result.validation_ok =
        res.validation->status != verify::Status::kDiverged;
  }
}

// Everything the workers share; the aggregation side is mutex-protected
// and touched only on drain.
struct BatchShared {
  const Manifest* manifest = nullptr;
  const BatchOptions* options = nullptr;
  std::vector<std::unique_ptr<WorkStealingDeque>> deques;
  GlobalInjector injector;
  std::chrono::steady_clock::time_point batch_start;

  std::mutex mu;
  BatchReport* report = nullptr;  // programs preallocated, manifest order
  obs::Registry aggregate;
};

struct WorkerTally {
  std::uint64_t own_pops = 0;
  std::uint64_t injector_pops = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
};

void drain_results(BatchShared& shared, std::vector<ProgramResult>& buffer) {
  if (buffer.empty()) return;
  std::lock_guard<std::mutex> lock(shared.mu);
  for (ProgramResult& r : buffer) {
    shared.report->programs[r.index] = std::move(r);
  }
  buffer.clear();
}

void run_one_job(std::size_t index, std::size_t worker, BatchShared& shared,
                 std::vector<ProgramResult>& buffer) {
  const BatchOptions& options = *shared.options;
  const BatchJob& job = shared.manifest->jobs[index];
  ProgramResult result;
  result.index = index;
  result.id = job.id;
  auto start = std::chrono::steady_clock::now();
  bool has_deadline = options.timeout_seconds > 0;
  auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.timeout_seconds));
  WorkerContext ctx(worker, deadline, has_deadline);
  obs::RemarkSink& sink = obs::remarks();
  sink.clear();
  PARCM_OBS_FLIGHT(obs::FlightKind::kProgramBegin, job.id, index, 0);
  // Helper threads (the safety solver's std::async solves) flush their
  // allocation deltas here, so result.allocs covers the whole job no
  // matter how the solver split its work across threads.
  obs::ForeignAllocSink foreign_allocs;
  obs::ForeignAllocSink* prev_foreign =
      obs::set_thread_foreign_alloc_sink(&foreign_allocs);
  obs::AllocCounterScope alloc_scope;
  try {
    if (options.test_before_job) options.test_before_job(index);
    ctx.check_deadline();
    if (options.runner) {
      options.runner(job, index, ctx, result);
    } else {
      default_runner(job, ctx, result, options);
    }
    result.status = JobStatus::kDone;
  } catch (const TimeoutError&) {
    result.status = JobStatus::kTimedOut;
    result.error = "per-program timeout exceeded";
  } catch (const std::exception& e) {
    result.status = JobStatus::kFailed;
    result.error = e.what();
  } catch (...) {
    result.status = JobStatus::kFailed;
    result.error = "unknown exception";
  }
  if (options.collect_remarks && result.status == JobStatus::kDone) {
    result.remark_count = sink.size();
    if (options.keep_remark_lines) {
      for (const obs::Remark& r : sink.snapshot()) {
        result.remarks.push_back(obs::remark_to_string(r));
      }
    }
  }
  result.allocs = alloc_scope.allocs() + foreign_allocs.allocs();
  obs::set_thread_foreign_alloc_sink(prev_foreign);
  auto latency_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  result.wall_ms = static_cast<double>(latency_ns) / 1e6;
  PARCM_OBS_HIST("driver.program_latency_ns",
                 static_cast<std::uint64_t>(latency_ns));
  PARCM_OBS_FLIGHT(obs::FlightKind::kProgramEnd, job.id, index,
                   static_cast<std::uint64_t>(result.status));
  // Forensics: a side channel strictly after the result is final — bundles
  // never feed back into the payload, and a failed dump never fails the
  // job.
  const bool forensic_worthy =
      result.status == JobStatus::kTimedOut ||
      result.status == JobStatus::kFailed ||
      (result.status == JobStatus::kDone && !result.validation_ok);
  if (!options.forensics_dir.empty() && forensic_worthy) {
    try {
      ForensicBundle bundle;
      bundle.reason = result.status == JobStatus::kTimedOut ? "timeout"
                      : result.status == JobStatus::kFailed
                          ? "exception"
                          : "oracle-divergence";
      bundle.mode = "batch";
      bundle.id = job.id;
      bundle.index = index;
      bundle.source = job.text();
      bundle.config = ForensicConfig::from_batch_options(options);
      bundle.outcome = result;
      bundle.flight = obs::flight().snapshot_current_thread();
      bundle.metrics_json = obs::registry().to_json(false);
      constexpr std::size_t kRemarkTail = 50;
      std::vector<obs::Remark> tail = sink.snapshot();
      const std::size_t first =
          tail.size() > kRemarkTail ? tail.size() - kRemarkTail : 0;
      for (std::size_t i = first; i < tail.size(); ++i) {
        bundle.remark_tail.push_back(obs::remark_to_string(tail[i]));
      }
      write_bundle(bundle, options.forensics_dir);
    } catch (...) {
      // An unreadable source or full disk must not take the batch down.
    }
  }
  buffer.push_back(std::move(result));
  if (buffer.size() >= std::max<std::size_t>(1, options.drain_batch)) {
    drain_results(shared, buffer);
  }
}

// Nanoseconds since `since`, for histogram samples.
std::uint64_t ns_since(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// The pop/steal/run loop, split out so its "driver.worker" span and timer
// close while the worker's thread overrides are still installed.
void worker_loop(std::size_t worker, BatchShared& shared,
                 const std::vector<std::size_t>& victims,
                 std::vector<ProgramResult>& buffer, WorkerTally& tally) {
  const BatchOptions& options = *shared.options;
  WorkStealingDeque& own = *shared.deques[worker];
  // One span covering the worker's whole lifetime, so every worker track
  // is populated even when all of its jobs were stolen out from under it.
  PARCM_OBS_TIMER("driver.worker");
  // Time from starting to look for work until a job is in hand; survives
  // failed steal sweeps (the yield-and-retry path keeps accumulating).
  auto seek_start = std::chrono::steady_clock::now();
  for (;;) {
    if (options.wall_limit_seconds > 0) {
      std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - shared.batch_start;
      if (elapsed.count() >= options.wall_limit_seconds) break;
    }
    std::size_t job = 0;
    if (own.pop(&job)) {
      ++tally.own_pops;
    } else if (shared.injector.pop(&job)) {
      ++tally.injector_pops;
    } else {
      auto sweep_start = std::chrono::steady_clock::now();
      bool stole = false, contended = false;
      for (std::size_t v : victims) {
        ++tally.steal_attempts;
        if (shared.deques[v]->steal(&job)) {
          ++tally.steals;
          stole = true;
          break;
        }
        // A lost CAS (as opposed to an empty deque) means work may remain;
        // sweep again instead of exiting.
        if (!shared.deques[v]->empty()) contended = true;
      }
      if (!stole) {
        if (!contended && shared.injector.exhausted()) break;
        std::this_thread::yield();
        continue;
      }
      PARCM_OBS_HIST("driver.steal_latency_ns", ns_since(sweep_start));
    }
    PARCM_OBS_HIST("driver.queue_wait_ns", ns_since(seek_start));
    run_one_job(job, worker, shared, buffer);
    seek_start = std::chrono::steady_clock::now();
  }
}

void worker_main(std::size_t worker, BatchShared& shared) {
  const BatchOptions& options = *shared.options;

  // Per-worker observability and analysis state: programs run with exactly
  // the single-thread semantics, merged on drain.
  obs::Registry registry;
  obs::RemarkSink sink;
  sink.set_enabled(options.collect_remarks);
  AnalysisCache cache;
  obs::Registry* prev_registry = obs::set_thread_registry(&registry);
  obs::RemarkSink* prev_sink = obs::set_thread_remark_sink(&sink);
  AnalysisCache* prev_cache = set_thread_analysis_cache(&cache);
  SharedAnalysisCache* shared_tier = nullptr;
  if (options.shared_cache) {
    shared_tier = options.shared_cache_instance != nullptr
                      ? options.shared_cache_instance
                      : &process_shared_analysis_cache();
  }
  SharedAnalysisCache* prev_shared =
      set_thread_shared_analysis_cache(shared_tier);

  // Deterministically shuffled steal-victim order (worker-level shuffle;
  // outputs must not depend on it).
  std::vector<std::size_t> victims;
  for (std::size_t v = 0; v < shared.deques.size(); ++v) {
    if (v != worker) victims.push_back(v);
  }
  Rng rng(options.steal_seed * 0x9E3779B97F4A7C15ull + worker + 1);
  for (std::size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[rng.below(i)]);
  }

  std::vector<ProgramResult> buffer;
  WorkerTally tally;
  {
    // Named trace track for this worker (no-op while tracing is disabled);
    // the async safety-solve helpers land on "worker-N/async". The sink
    // must have been enabled before run_batch spawned us.
    obs::TraceThreadScope trace_scope("worker-" + std::to_string(worker));
    worker_loop(worker, shared, victims, buffer, tally);
  }

  drain_results(shared, buffer);
  set_thread_shared_analysis_cache(prev_shared);
  set_thread_analysis_cache(prev_cache);
  obs::set_thread_remark_sink(prev_sink);
  obs::set_thread_registry(prev_registry);
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.report->queue.own_pops += tally.own_pops;
    shared.report->queue.injector_pops += tally.injector_pops;
    shared.report->queue.steals += tally.steals;
    shared.report->queue.steal_attempts += tally.steal_attempts;
  }
  shared.aggregate.merge_from(registry);
}

}  // namespace

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimedOut: return "timed-out";
    case JobStatus::kSkipped: return "skipped";
  }
  return "?";
}

BatchReport run_batch(const Manifest& manifest, const BatchOptions& options) {
  BatchReport report;
  report.pipeline = options.pipeline;
  report.validated = options.validate;
  std::size_t workers = options.jobs;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers = std::max<std::size_t>(1, std::min(workers, std::size_t{256}));
  report.workers = workers;
  report.totals.submitted = manifest.size();
  report.programs.resize(manifest.size());
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    report.programs[i].index = i;
    report.programs[i].id = manifest.jobs[i].id;
  }
  if (manifest.empty()) return report;

  // Forensic bundles embed a flight-recorder snapshot; arm the recorder
  // whenever a bundle directory was requested. The recorder writes only to
  // its own rings and the payload never includes recorder state, so this
  // cannot perturb report byte-identity.
  if (!options.forensics_dir.empty()) obs::flight().set_enabled(true);

  // Size-ordered sharding: big programs first, dealt round-robin across
  // the per-worker deques; the rest feeds the global injector in the same
  // order.
  std::vector<std::size_t> order(manifest.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&manifest](std::size_t a, std::size_t b) {
                     return manifest.jobs[a].size_hint >
                            manifest.jobs[b].size_hint;
                   });

  BatchShared shared;
  shared.manifest = &manifest;
  shared.options = &options;
  shared.report = &report;
  std::size_t shard_cap =
      options.shard_cap > 0 ? options.shard_cap : kDefaultShardCap;
  std::size_t dealt = std::min(order.size(), shard_cap * workers);
  for (std::size_t w = 0; w < workers; ++w) {
    shared.deques.push_back(
        std::make_unique<WorkStealingDeque>(manifest.size()));
  }
  // Deal in reverse so each deque's bottom (the owner's LIFO end) holds its
  // biggest job: workers start their largest program first.
  for (std::size_t i = dealt; i-- > 0;) {
    shared.deques[i % workers]->push(order[i]);
  }
  shared.injector.seed(
      std::vector<std::size_t>(order.begin() + dealt, order.end()));

  auto wall_start = std::chrono::steady_clock::now();
  shared.batch_start = wall_start;
  std::clock_t cpu_start = std::clock();

  if (workers == 1) {
    worker_main(0, shared);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([w, &shared] { worker_main(w, shared); });
    }
    for (std::thread& t : pool) t.join();
  }

  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  report.cpu_ms = 1000.0 *
                  static_cast<double>(std::clock() - cpu_start) /
                  static_cast<double>(CLOCKS_PER_SEC);

  for (const ProgramResult& r : report.programs) {
    report.allocs_total += r.allocs;
    switch (r.status) {
      case JobStatus::kDone:
        ++report.totals.done;
        if (!r.validation_ok) ++report.validation_failures;
        break;
      case JobStatus::kFailed: ++report.totals.failed; break;
      case JobStatus::kTimedOut: ++report.totals.timed_out; break;
      case JobStatus::kSkipped: ++report.totals.skipped; break;
    }
  }
  if (report.totals.done > 0) {
    report.allocs_per_program = static_cast<double>(report.allocs_total) /
                                static_cast<double>(report.totals.done);
  }
  report.counters = shared.aggregate.counters();
  report.timers = shared.aggregate.timers();
  report.histograms = shared.aggregate.histograms();
  auto counter = [&report](const char* name) -> std::uint64_t {
    auto it = report.counters.find(name);
    return it == report.counters.end() ? 0 : it->second;
  };
  report.cache_hits = counter("analysis.cache.hits");
  report.cache_misses = counter("analysis.cache.misses");
  report.cache_builds = counter("analysis.cache.builds");
  // Hit rate = fraction of lookups that avoided a rebuild, on either tier:
  // a thread-tier miss that the shared tier satisfies is still a hit. With
  // the shared tier off, builds == misses and this reduces to the classic
  // hits / (hits + misses).
  std::uint64_t lookups = report.cache_hits + report.cache_misses;
  report.cache_hit_rate =
      lookups == 0 ? 0.0
                   : 1.0 - static_cast<double>(report.cache_builds) /
                               static_cast<double>(lookups);
  return report;
}

std::string BatchReport::summary() const {
  std::string s = "batch: " + std::to_string(totals.submitted) +
                  " programs on " + std::to_string(workers) + " worker" +
                  (workers == 1 ? "" : "s") + " — " +
                  std::to_string(totals.done) + " done, " +
                  std::to_string(totals.failed) + " failed, " +
                  std::to_string(totals.timed_out) + " timed out";
  if (totals.skipped > 0) {
    s += ", " + std::to_string(totals.skipped) + " skipped";
  }
  if (validated) {
    s += "; validation: " + std::to_string(validation_failures) +
         " divergence" + (validation_failures == 1 ? "" : "s");
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "; wall %.1f ms, cpu %.1f ms, cache hit rate %.2f, steals %llu",
                wall_ms, cpu_ms, cache_hit_rate,
                static_cast<unsigned long long>(queue.steals));
  s += buf;
  if (allocs_total > 0) {
    std::snprintf(buf, sizeof(buf), ", %.0f allocs/program",
                  allocs_per_program);
    s += buf;
  }
  return s;
}

std::string BatchReport::to_json(bool pretty, bool include_timing) const {
  obs::JsonWriter w(pretty);
  w.begin_object();
  w.key("schema").value("parcm-batch-v1");
  w.key("pipeline").value(pipeline);
  w.key("validated").value(validated);
  w.key("totals").begin_object();
  w.key("submitted").value(totals.submitted);
  w.key("done").value(totals.done);
  w.key("failed").value(totals.failed);
  w.key("timed_out").value(totals.timed_out);
  w.key("skipped").value(totals.skipped);
  w.key("validation_failures").value(validation_failures);
  w.end_object();
  if (include_timing) {
    w.key("workers").value(workers);
    w.key("wall_ms").value(wall_ms);
    w.key("cpu_ms").value(cpu_ms);
    w.key("allocs_total").value(allocs_total);
    w.key("allocs_per_program").value(allocs_per_program);
    w.key("queue").begin_object();
    w.key("own_pops").value(queue.own_pops);
    w.key("injector_pops").value(queue.injector_pops);
    w.key("steals").value(queue.steals);
    w.key("steal_attempts").value(queue.steal_attempts);
    w.end_object();
    w.key("cache").begin_object();
    w.key("hits").value(cache_hits);
    w.key("misses").value(cache_misses);
    w.key("builds").value(cache_builds);
    w.key("hit_rate").value(cache_hit_rate);
    w.end_object();
  }
  w.key("programs").begin_array();
  for (const ProgramResult& r : programs) {
    w.begin_object();
    w.key("index").value(r.index);
    w.key("id").value(r.id);
    w.key("status").value(job_status_name(r.status));
    if (!r.error.empty()) w.key("error").value(r.error);
    // Wall time and allocation counts are schedule- and cache-state-
    // dependent, so they stay out of the deterministic payload.
    if (include_timing) {
      w.key("wall_ms").value(r.wall_ms);
      w.key("allocs").value(r.allocs);
      if (!r.pass_wall_ms.empty()) {
        // Array, not object: pass names repeat ("validate" guards several
        // stages of the full pipeline).
        w.key("pass_wall_ms").begin_array();
        for (const auto& [pass, ms] : r.pass_wall_ms) {
          w.begin_object();
          w.key("pass").value(pass);
          w.key("ms").value(ms);
          w.end_object();
        }
        w.end_array();
      }
    }
    // Content-derived (schedule-independent), so part of the payload: the
    // profile tool's shape-family cohort key.
    if (r.shape_hash != 0) {
      char hex[19];
      std::snprintf(hex, sizeof(hex), "0x%016llx",
                    static_cast<unsigned long long>(r.shape_hash));
      w.key("shape_hash").value(hex);
    }
    w.key("nodes_before").value(r.nodes_before);
    w.key("nodes_after").value(r.nodes_after);
    w.key("actions").value(r.actions);
    w.key("remark_count").value(r.remark_count);
    if (!r.remarks.empty()) {
      w.key("remarks").begin_array();
      for (const std::string& line : r.remarks) w.value(line);
      w.end_array();
    }
    if (!r.validation.empty()) {
      w.key("validation").value(r.validation);
      w.key("validation_ok").value(r.validation_ok);
    }
    if (!r.output.empty()) w.key("output").value(r.output);
    w.end_object();
  }
  w.end_array();
  if (include_timing) {
    w.key("metrics").begin_object();
    w.key("counters").begin_object();
    for (const auto& [k, v] : counters) w.key(k).value(v);
    w.end_object();
    w.key("timers").begin_object();
    for (const auto& [k, v] : timers) {
      w.key(k).begin_object();
      w.key("count").value(v.count);
      w.key("total_ms").value(v.total_ms());
      w.end_object();
    }
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& [k, v] : histograms) {
      w.key(k).begin_object();
      w.key("count").value(v.count());
      w.key("min").value(v.min());
      w.key("max").value(v.max());
      w.key("mean").value(v.mean());
      w.key("p50").value(v.p50());
      w.key("p90").value(v.p90());
      w.key("p99").value(v.p99());
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace parcm::driver
