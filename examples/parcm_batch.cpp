// parcm_batch — batch-compilation driver: optimize a whole corpus of parcm
// programs on a pool of worker threads.
//
//   parcm_batch [options] <dir | manifest.txt | file.parcm ...>
//     --jobs N         worker threads (default: hardware concurrency)
//     --pipeline NAME  full | pcm | naive | bcm | lcm | sinking | dce |
//                      constprop (default full)
//     --validate       run the differential translation-validation oracle
//                      on every program's output; divergences fail the run
//     --timeout S      per-program wall-clock box in seconds (fractional ok)
//     --wall-limit S   whole-batch wall-clock box; unstarted jobs report
//                      skipped
//     --json FILE      write the parcm-batch-v1 report ("-" = stdout)
//     --trace-json F   enable span tracing and write the multi-track
//                      Chrome trace_event timeline (parcm-trace-v1; open
//                      in ui.perfetto.dev) — one track per worker
//     --pretty         pretty-print the JSON report
//     --no-output      omit optimized program text from the report
//     --remarks        retain per-program remark lines in the report
//     --max-states N   exact-enumeration state cap for --validate
//     --quiet          suppress the human summary
//     --forensics-dir D  on per-program timeout/exception/oracle divergence,
//                      write a self-contained parcm-forensic-v1 bundle into
//                      D (replayable with parcm_opt --replay); also arms the
//                      flight recorder for the run
//     --inject MODE    deliberately miscompile through the named injector
//                      (naive | no-privatize | no-parend-export | no-sink) —
//                      forensics/oracle self-test, recorded in bundles so
//                      replays reproduce the divergence
//
//     --shared-cache on|off  share analysis artifacts across workers via
//                      the process-wide structural-key cache (default on;
//                      payloads are byte-identical either way)
//
//   Synthetic corpus (no files needed):
//     --gen N          batch N deterministically generated random programs
//     --gen-seed S     corpus seed (default 42)
//     --gen-stmts N    generator statement budget (default 10)
//     --gen-shapes K   draw the corpus from a pool of K distinct shapes
//                      (variables renamed per repetition; 0 = all distinct).
//                      The shared-cache workload: N programs, K rebuilds.
//
//   Scaling bench:
//     --scaling LIST   e.g. 1,2,4,8,16 — run the same corpus once per jobs
//                      value, print the speedup curve, and re-check that
//                      the per-program report is byte-identical across runs
//     --bench-json F   write the curve as a parcm-bench-v1 artifact
//                      (scripts/run_bench.sh -> BENCH_batch.json)
//
// Exit codes: 0 clean, 1 failures/timeouts/validation divergences (or a
// non-deterministic scaling run), 2 usage error.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/driver.hpp"
#include "lang/unparse.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/fuzz.hpp"
#include "workload/randomprog.hpp"

using namespace parcm;

namespace {

std::vector<std::size_t> parse_jobs_list(const std::string& list) {
  std::vector<std::size_t> out;
  std::istringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoull(item));
  }
  return out;
}

bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text << "\n";
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << text << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  driver::BatchOptions opt;
  opt.jobs = 0;
  std::vector<std::string> inputs;
  std::string json_path, trace_json_path, scaling_list, bench_json_path;
  std::size_t gen_count = 0, gen_stmts = 10, gen_shapes = 0;
  std::uint64_t gen_seed = 42;
  bool pretty = false, quiet = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  auto next = [&args](std::size_t* i) -> std::string {
    if (*i + 1 >= args.size()) {
      std::cerr << args[*i] << " needs a value\n";
      std::exit(2);
    }
    return args[++*i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--jobs") {
      opt.jobs = std::stoull(next(&i));
    } else if (a == "--pipeline") {
      opt.pipeline = next(&i);
    } else if (a == "--validate") {
      opt.validate = true;
    } else if (a == "--timeout") {
      opt.timeout_seconds = std::stod(next(&i));
    } else if (a == "--wall-limit") {
      opt.wall_limit_seconds = std::stod(next(&i));
    } else if (a == "--json") {
      json_path = next(&i);
    } else if (a == "--trace-json") {
      trace_json_path = next(&i);
    } else if (a == "--pretty") {
      pretty = true;
    } else if (a == "--no-output") {
      opt.keep_output = false;
    } else if (a == "--remarks") {
      opt.keep_remark_lines = true;
    } else if (a == "--max-states") {
      opt.budget.max_states = std::stoull(next(&i));
    } else if (a == "--forensics-dir") {
      opt.forensics_dir = next(&i);
    } else if (a == "--inject") {
      opt.inject_mode = next(&i);
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--gen") {
      gen_count = std::stoull(next(&i));
    } else if (a == "--gen-seed") {
      gen_seed = std::stoull(next(&i));
    } else if (a == "--gen-stmts") {
      gen_stmts = std::stoull(next(&i));
    } else if (a == "--gen-shapes") {
      gen_shapes = std::stoull(next(&i));
    } else if (a == "--shared-cache") {
      std::string v = next(&i);
      if (v != "on" && v != "off") {
        std::cerr << "--shared-cache needs on or off\n";
        return 2;
      }
      opt.shared_cache = v == "on";
    } else if (a == "--scaling") {
      scaling_list = next(&i);
    } else if (a == "--bench-json") {
      bench_json_path = next(&i);
    } else if (a == "--manifest") {
      inputs.push_back(next(&i));
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: parcm_batch [--jobs N] [--pipeline NAME] [--validate] "
             "[--timeout S] [--wall-limit S] [--json FILE] "
             "[--trace-json FILE] "
             "[--pretty] [--no-output] [--remarks] [--max-states N] [--quiet] "
             "[--forensics-dir DIR] [--inject MODE] [--shared-cache on|off] "
             "[--gen N [--gen-seed S] [--gen-stmts N] [--gen-shapes K]] "
             "[--scaling 1,2,4,8 [--bench-json FILE]] "
             "<dir | manifest | file.parcm ...>\n";
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown option " << a << "\n";
      return 2;
    } else {
      inputs.push_back(a);
    }
  }

  driver::Manifest manifest;
  try {
    if (gen_count > 0) {
      RandomProgramOptions gen = verify::default_fuzz_gen();
      gen.target_stmts = gen_stmts;
      manifest = driver::Manifest::lazy(
          gen_count, "gen" + std::to_string(gen_seed),
          [gen_seed, gen, gen_shapes](std::size_t i) {
            lang::Program p =
                gen_shapes > 0
                    ? verify::fuzz_program_pooled(gen_seed, i, gen_shapes, gen)
                    : verify::fuzz_program(gen_seed, i, gen);
            return lang::to_source(p);
          });
    } else if (inputs.size() == 1) {
      manifest = driver::Manifest::from_path(inputs[0]);
    } else if (!inputs.empty()) {
      for (const std::string& path : inputs) {
        driver::BatchJob job;
        job.id = path;
        job.path = path;
        manifest.jobs.push_back(std::move(job));
      }
    } else {
      std::cerr << "no input: pass a directory, a manifest file, .parcm "
                   "files, or --gen N\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  // Tracing must be on before run_batch spawns workers (the sink adopts
  // this thread as owner; workers bind their span buffers at start-up).
  if (!trace_json_path.empty()) obs::trace().set_enabled(true);

  if (!scaling_list.empty()) {
    std::vector<std::size_t> jobs_values = parse_jobs_list(scaling_list);
    if (jobs_values.empty()) {
      std::cerr << "--scaling needs a non-empty jobs list\n";
      return 2;
    }
    // The batch payload must be schedule-independent: every run's
    // timing-free report is held against the first run's.
    std::string reference;
    bool deterministic = true;
    double jobs1_wall = 0.0;
    struct Row {
      std::size_t jobs = 0;
      double wall_ms = 0.0;
      double cpu_ms = 0.0;
      double speedup = 0.0;
      driver::BatchTotals totals;
      double cache_hit_rate = 0.0;
      double allocs_per_program = 0.0;
      double latency_p50_ns = 0.0;
      double latency_p99_ns = 0.0;
    };
    std::vector<Row> rows;
    for (std::size_t jobs : jobs_values) {
      driver::BatchOptions run_opt = opt;
      run_opt.jobs = jobs;
      // Each scaling step gets a fresh timeline; the trace file ends up
      // holding the last (largest) jobs value.
      if (!trace_json_path.empty()) obs::trace().clear();
      driver::BatchReport report = driver::run_batch(manifest, run_opt);
      std::string payload = report.to_json(false, /*include_timing=*/false);
      if (reference.empty()) {
        reference = payload;
        jobs1_wall = report.wall_ms;
      } else if (payload != reference) {
        deterministic = false;
      }
      Row row;
      row.jobs = jobs;
      row.wall_ms = report.wall_ms;
      row.cpu_ms = report.cpu_ms;
      row.speedup = report.wall_ms > 0 ? jobs1_wall / report.wall_ms : 0.0;
      row.totals = report.totals;
      row.cache_hit_rate = report.cache_hit_rate;
      row.allocs_per_program = report.allocs_per_program;
      auto lat = report.histograms.find("driver.program_latency_ns");
      if (lat != report.histograms.end()) {
        row.latency_p50_ns = lat->second.p50();
        row.latency_p99_ns = lat->second.p99();
      }
      rows.push_back(row);
      if (!quiet) {
        std::printf(
            "jobs %3zu: wall %10.1f ms  cpu %10.1f ms  speedup %5.2fx  "
            "done %zu/%zu\n",
            row.jobs, row.wall_ms, row.cpu_ms, row.speedup, row.totals.done,
            row.totals.submitted);
      }
    }
    if (!deterministic) {
      std::cerr << "FAIL: batch payload differs across job counts\n";
    } else if (!quiet) {
      std::cout << "payload byte-identical across all "
                << jobs_values.size() << " runs\n";
    }
    if (!bench_json_path.empty()) {
      obs::JsonWriter w(/*pretty=*/true);
      w.begin_object();
      w.key("schema").value("parcm-bench-v1");
      w.key("bench").value("parcm_batch_scaling");
      w.key("results").begin_array();
      for (const Row& row : rows) {
        w.begin_object();
        w.key("name").value("batch/jobs:" + std::to_string(row.jobs));
        w.key("iterations").value(1);
        w.key("real_ns_per_iter").value(row.wall_ms * 1e6);
        w.key("cpu_ns_per_iter").value(row.cpu_ms * 1e6);
        w.key("counters").begin_object();
        w.key("programs").value(row.totals.submitted);
        w.key("done").value(row.totals.done);
        w.key("speedup_vs_jobs1").value(row.speedup);
        w.key("cache_hit_rate").value(row.cache_hit_rate);
        w.key("allocs_per_program").value(row.allocs_per_program);
        w.key("program_latency_p50_ns").value(row.latency_p50_ns);
        w.key("program_latency_p99_ns").value(row.latency_p99_ns);
        w.key("deterministic").value(deterministic ? 1 : 0);
        w.end_object();
        w.end_object();
      }
      w.end_array();
      w.end_object();
      if (!write_text(bench_json_path, w.take())) return 2;
    }
    if (!trace_json_path.empty() &&
        !write_text(trace_json_path, obs::trace().chrome_json())) {
      return 2;
    }
    return deterministic ? 0 : 1;
  }

  driver::BatchReport report = driver::run_batch(manifest, opt);
  if (!quiet) std::cout << report.summary() << "\n";
  if (!quiet) {
    for (const driver::ProgramResult& r : report.programs) {
      if (r.status == driver::JobStatus::kDone && r.validation_ok) continue;
      if (r.status == driver::JobStatus::kSkipped) continue;
      std::cout << "  " << r.id << ": " << driver::job_status_name(r.status);
      if (!r.error.empty()) std::cout << " — " << r.error;
      if (!r.validation_ok) std::cout << " — " << r.validation;
      std::cout << "\n";
    }
  }
  if (!json_path.empty() &&
      !write_text(json_path, report.to_json(pretty))) {
    return 2;
  }
  if (!trace_json_path.empty() &&
      !write_text(trace_json_path, obs::trace().chrome_json())) {
    return 2;
  }
  return report.ok() ? 0 : 1;
}
