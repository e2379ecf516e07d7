// Batch-compilation engine.
//
// run_batch takes a Manifest of `.parcm` programs and pushes every one
// through the optimization pipeline on a pool of worker threads:
//
//   scheduling    jobs are sorted by size, biggest first (so the batch tail
//                 stays short), and workers claim them one at a time
//                 through a single atomic cursor over that order. Each
//                 index is claimed exactly once, so a worker writes its
//                 result straight into the job's preallocated report slot.
//   isolation     each worker installs its own obs::Registry, RemarkSink
//                 and AnalysisCache as thread overrides, so programs are
//                 processed with exactly the single-thread observability
//                 semantics — per-program outputs and remark streams are
//                 byte-identical at any --jobs value
//                 (tests/test_batch_determinism.cpp holds this). A worker
//                 is the only thread its programs run on.
//   failure       one bad program degrades to a reported failure: internal
//                 errors and parse errors mark the job kFailed, a
//                 per-program deadline unwinds between passes as
//                 kTimedOut, and the batch always completes with balanced
//                 counters (submitted = done + failed + timed_out +
//                 skipped).
//   validation    opt-in --validate runs the differential
//                 translation-validation oracle on every program's output
//                 and records the verdict per program.
//
// The aggregate report carries per-program verdicts, remark counts,
// wall/cpu time and cache hit rates, and renders as `parcm-batch-v1` JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/manifest.hpp"
#include "obs/metrics.hpp"
#include "verify/verify.hpp"

namespace parcm {
class Pipeline;
class SharedAnalysisCache;
}

namespace parcm::driver {

// Thrown by deadline checks when a program exceeds its per-job timeout;
// the worker catches it and reports the job as kTimedOut.
struct TimeoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Per-job view handed to custom runners: the worker index and the job's
// deadline. check_deadline() is the cooperative cancellation point — the
// default runner wires it between pipeline passes.
class WorkerContext {
 public:
  WorkerContext(std::size_t worker,
                std::chrono::steady_clock::time_point deadline, bool has_deadline)
      : worker_(worker), deadline_(deadline), has_deadline_(has_deadline) {}

  std::size_t worker() const { return worker_; }
  bool past_deadline() const {
    return has_deadline_ && std::chrono::steady_clock::now() > deadline_;
  }
  void check_deadline() const {
    if (past_deadline()) throw TimeoutError("per-program timeout exceeded");
  }

 private:
  std::size_t worker_;
  std::chrono::steady_clock::time_point deadline_;
  bool has_deadline_;
};

enum class JobStatus : std::uint8_t {
  kDone,      // pipeline (and validation, when requested) completed
  kFailed,    // parse error or exception; `error` carries the message
  kTimedOut,  // per-program deadline fired
  kSkipped,   // never ran (batch wall limit reached first)
};

const char* job_status_name(JobStatus s);

struct ProgramResult {
  std::size_t index = 0;  // manifest position
  std::string id;
  JobStatus status = JobStatus::kSkipped;
  std::string error;
  double wall_ms = 0.0;
  // operator-new calls made while compiling this program (0 when the
  // counting hook is compiled out; see obs::alloc_hook_active()).
  std::uint64_t allocs = 0;
  // Structural hash of the *input* graph (analyses/cache.hpp): the shape-
  // family cohort key for profile attribution. Content-derived and
  // schedule-independent, so it lives in the deterministic payload; 0 when
  // the program never compiled.
  std::uint64_t shape_hash = 0;
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  std::size_t actions = 0;       // summed pass actions
  std::size_t remark_count = 0;
  // Per-pass wall clock in pipeline order; timing-only (excluded from the
  // deterministic payload), feeds parcm_profile's per-pass attribution.
  std::vector<std::pair<std::string, double>> pass_wall_ms;
  std::vector<std::string> remarks;  // rendered lines (collect_remarks)
  std::string output;                // optimized program text (keep_output)
  // Differential-validation verdict summary; empty when not validated.
  std::string validation;
  bool validation_ok = true;
};

struct BatchOptions {
  // Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t jobs = 0;
  // full | pcm | naive | bcm | lcm | sinking | dce | constprop
  std::string pipeline = "full";
  // Run the translation-validation oracle on every program's output.
  bool validate = false;
  verify::Budget budget;
  // Per-program wall-clock box in seconds; 0 = none.
  double timeout_seconds = 0;
  // Whole-batch wall-clock box; jobs not started in time report kSkipped.
  double wall_limit_seconds = 0;
  // Share analysis artifacts across workers through the process-wide
  // structural-key cache (analyses/cache.hpp): a corpus full of repeated
  // shapes builds TermTable/LocalPredicates once per shape instead of once
  // per program. Purely a rebuild-count optimization — per-program payloads
  // are byte-identical either way (the determinism suite runs both modes,
  // hot and cold).
  bool shared_cache = true;
  // Test hook: when shared_cache is on and this is set, workers install
  // this instance instead of the process-wide one — tests get a private,
  // guaranteed-cold cache without clearing global state.
  SharedAnalysisCache* shared_cache_instance = nullptr;
  bool keep_output = true;
  // Enable the per-worker remark sink and record per-program remark counts.
  bool collect_remarks = true;
  // When non-empty, every timed-out, failed or oracle-diverged program
  // dumps a self-contained `parcm-forensic-v1` bundle into this directory
  // (created on demand). A side channel only: bundles never alter the
  // report payload, and a bundle-write failure never fails the job.
  std::string forensics_dir;
  // Miscompile injection for the default runner (verify::InjectOptions
  // modes: naive | no-privatize | no-parend-export | no-sink). Empty = run
  // the real pipeline. Recorded in forensic bundles so replay reproduces
  // the injected divergence; used by the forensics drills and oracle
  // stress tests.
  std::string inject_mode;
  // Additionally retain every rendered remark line in ProgramResult (the
  // determinism suite diffs these; off by default to bound report size).
  bool keep_remark_lines = false;
  // Test hook, called on the worker right before a job runs (fault and
  // delay injection for the stress suite).
  std::function<void(std::size_t index)> test_before_job;
  // Replaces the default compile+pipeline body. The driver still provides
  // scheduling, per-worker obs isolation, timing, timeout and exception
  // containment; the runner fills the result's payload fields.
  std::function<void(const BatchJob&, std::size_t index, WorkerContext&,
                     ProgramResult&)>
      runner;
};

struct BatchTotals {
  std::size_t submitted = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t skipped = 0;
};

struct QueueStats {
  // Always 0: workers claim jobs from one cursor and never steal. Kept
  // only because the end-to-end benchmark reports it (e2e_bench
  // driver.steals); retire both at the next change to that benchmark.
  std::uint64_t steals = 0;
};

struct BatchReport {
  std::vector<ProgramResult> programs;  // manifest order
  BatchTotals totals;
  QueueStats queue;
  std::size_t workers = 0;
  std::string pipeline;
  bool validated = false;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  // Merged per-worker registries. Histogram merges are exact, so
  // driver.program_latency_ns summarizes the whole batch as if recorded
  // centrally.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::TimerStat> timers;
  std::map<std::string, obs::Histogram> histograms;
  std::uint64_t allocs_total = 0;
  double allocs_per_program = 0.0;  // allocs_total / done, 0 when none ran
  // Always 0: every acquisition counts as a miss, and only the shared tier
  // can spare a build. Kept only because the end-to-end benchmark reports
  // hits + misses as its lookups (e2e_bench analyses.cache_lookups); retire
  // it with QueueStats::steals.
  std::uint64_t cache_hits = 0;
  // Analysis acquisitions ("analysis.cache.misses").
  std::uint64_t cache_misses = 0;
  // Analyses actually constructed ("analysis.cache.builds"): acquisitions
  // the shared tier did not serve.
  std::uint64_t cache_builds = 0;
  // Fraction of acquisitions the shared tier served without a rebuild:
  // 1 - builds / (hits + misses); 0 when unused or with the tier off.
  double cache_hit_rate = 0.0;
  std::size_t validation_failures = 0;

  bool ok() const {
    return totals.failed == 0 && totals.timed_out == 0 &&
           validation_failures == 0;
  }

  // One-paragraph human summary.
  std::string summary() const;
  // `parcm-batch-v1` JSON. include_timing=false omits every
  // schedule-dependent field (wall/cpu times, worker count, allocation and
  // cache statistics, merged metrics) leaving exactly the per-program
  // payload that is byte-identical across job counts.
  std::string to_json(bool pretty = false, bool include_timing = true) const;
};

BatchReport run_batch(const Manifest& manifest, const BatchOptions& options);

// The named pipeline the default runner builds (full | pcm | naive | bcm |
// lcm | sinking | dce | constprop). Shared with forensic replay so a
// bundle's `config.pipeline` string resolves to exactly the batch
// semantics. Throws on unknown names.
Pipeline make_batch_pipeline(const std::string& name);

}  // namespace parcm::driver
