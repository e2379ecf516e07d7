// End-to-end benchmark harness: runs one workload in this process.
//
//   e2e_harness --workload corpus|large|validate --seed N --seconds S
//               --trace 0|1 [--trace-out FILE] [--setup-only 0|1]
//
// Set-up generates the workload's inputs from the seed. setup_s is the
// median over fresh processes of this harness, started with --setup-only 1,
// of the time from process start to the end of set-up; such a process
// prints that moment on stdout and exits. The timed phase runs whole rounds
// of the inputs until --seconds of rounds have been measured, with spans
// recorded when --trace is 1. The check phase then checks every output of
// every round. The last line on stdout is the result object; diagnostics
// go to stderr.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyses/cache.hpp"
#include "checks.hpp"
#include "driver/driver.hpp"
#include "inputs.hpp"
#include "ir/printer.hpp"
#include "lang/lower.hpp"
#include "motion/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "spans.hpp"
#include "verify/verify.hpp"
#include "verify/vm_oracle.hpp"

extern char** environ;

namespace e2e {
namespace {

// CLOCK_MONOTONIC on Linux, so its readings compare across processes.
using Clock = std::chrono::steady_clock;

// Set-up processes; setup_s is the median of their set-up times.
constexpr int kSetupSamples = 9;
// validate: a program whose run takes less than kLightMs is light. Light
// programs run again, in passes over all of them, until the passes have
// taken kLatencySamplingS; a light program's latency is the median of its
// runs.
constexpr double kLightMs = 50;
constexpr double kLatencySamplingS = 3;
// Accepted node range of the large family.
constexpr std::size_t kLargeMinNodes = 150;
constexpr std::size_t kLargeMaxNodes = 450;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_harness: %s\nusage: e2e_harness --workload "
               "corpus|large|validate --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--setup-only 0|1]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + a);
    kv[a.substr(2)] = argv[++i];
  }
  Options o;
  try {
    o.workload = kv.at("workload");
    o.seed = std::stoull(kv.at("seed"));
    o.seconds = std::stod(kv.at("seconds"));
    std::string trace = kv.at("trace");
    if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
    o.trace = trace == "1";
  } catch (const std::out_of_range&) {
    usage("--workload, --seed, --seconds and --trace are required");
  } catch (const std::invalid_argument&) {
    usage("--seed and --seconds take numbers");
  }
  if (kv.count("trace-out")) o.trace_out = kv["trace-out"];
  if (kv.count("setup-only")) o.setup_only = kv["setup-only"] == "1";
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  kv.erase("workload");
  kv.erase("seed");
  kv.erase("seconds");
  kv.erase("trace");
  kv.erase("trace-out");
  kv.erase("setup-only");
  if (!kv.empty()) usage("unknown option --" + kv.begin()->first);
  return o;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

long long clock_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// What one program produced in one round. `output` is what later rounds
// must reproduce byte for byte: the optimized text for batch workloads,
// both verdicts for validate.
struct ProgramRun {
  bool done = false;
  std::string error;
  double latency_ms = 0;
  std::string output;
};

// Graphs of validate's first round, kept for the seeded-path check.
struct GraphPair {
  parcm::Graph in;
  parcm::Graph out;
};

struct Round {
  std::vector<ProgramRun> runs;
  double wall_s = 0;  // timed part of the round
  double cpu_s = 0;   // process CPU time over the same part
};

class Bench {
 public:
  Bench(Workload w) : w_(std::move(w)) {
    std::vector<std::pair<std::string, std::string>> sources;
    for (const Input& in : w_.inputs) sources.emplace_back(in.id, in.source);
    manifest_ = parcm::driver::Manifest::from_sources(std::move(sources));
    batch_.jobs = w_.jobs;
    batch_.pipeline = "full";
  }

  const Workload& workload() const { return w_; }

  // One round; only the part between the two clock reads is timed.
  // `sample_latency` asks validate for the repeated latency runs, which
  // are outside the round's wall and CPU times.
  Round run_round(std::vector<GraphPair>* keep, bool sample_latency) {
    if (w_.jobs > 0) return batch_round();
    Round r = validate_round(keep);
    if (sample_latency) sample_light_latencies(&r);
    return r;
  }

 private:
  Round batch_round() {
    // Every round starts from a cold process-wide analysis cache, as a
    // fresh parcm_batch process would.
    parcm::process_shared_analysis_cache().clear();
    Round r;
    double cpu0 = process_cpu_s();
    Clock::time_point t0 = Clock::now();
    parcm::driver::BatchReport report = parcm::driver::run_batch(manifest_, batch_);
    r.wall_s = seconds_since(t0);
    r.cpu_s = process_cpu_s() - cpu0;
    for (const parcm::driver::ProgramResult& p : report.programs) {
      ProgramRun run;
      run.done = p.status == parcm::driver::JobStatus::kDone;
      run.error = run.done ? "" : parcm::driver::job_status_name(p.status) +
                                      std::string(": ") + p.error;
      run.latency_ms = p.wall_ms;
      run.output = p.output;
      r.runs.push_back(std::move(run));
    }
    return r;
  }

  // parcm_fuzz --pipeline full --oracle both, one program at a time. Each
  // round gets its own registry and analysis cache, as a fresh process.
  Round validate_round(std::vector<GraphPair>* keep) {
    parcm::obs::Registry registry;
    parcm::AnalysisCache cache;
    parcm::obs::Registry* prev_registry = parcm::obs::set_thread_registry(&registry);
    parcm::AnalysisCache* prev_cache = parcm::set_thread_analysis_cache(&cache);
    Round r;
    double cpu0 = process_cpu_s();
    for (const Input& in : w_.inputs) {
      GraphPair graphs;
      r.runs.push_back(validate_one(in, &graphs));
      if (keep != nullptr) keep->push_back(std::move(graphs));
    }
    r.cpu_s = process_cpu_s() - cpu0;
    for (const ProgramRun& run : r.runs) r.wall_s += run.latency_ms / 1e3;
    parcm::set_thread_analysis_cache(prev_cache);
    parcm::obs::set_thread_registry(prev_registry);
    // The registry facts run_batch reports for a batch (wraps.cpp).
    count(Count::kCacheLookups, registry.counter("analysis.cache.hits") +
                                    registry.counter("analysis.cache.misses"));
    count(Count::kCacheBuilds, registry.counter("analysis.cache.builds"));
    count(Count::kRegistryNames, registry.counters().size());
    return r;
  }

  // The light programs of a validate round run within about 50 ms, while
  // this machine's speed was seen to change by a third from one such window
  // to the next (README.md, "Noise"). So they run again in passes, each
  // run with a fresh analysis cache and registry, and each light program's
  // latency becomes the median of its runs, which spread over
  // kLatencySamplingS. A repeat must give the first run's verdicts.
  void sample_light_latencies(Round* r) {
    std::vector<std::size_t> light;
    std::vector<std::vector<double>> samples(r->runs.size());
    for (std::size_t i = 0; i < r->runs.size(); ++i) {
      if (!r->runs[i].error.empty() || r->runs[i].latency_ms >= kLightMs) continue;
      light.push_back(i);
      samples[i].push_back(r->runs[i].latency_ms);
    }
    const Clock::time_point t0 = Clock::now();
    while (!light.empty() && seconds_since(t0) < kLatencySamplingS) {
      for (std::size_t i : light) {
        parcm::obs::Registry registry;
        parcm::AnalysisCache cache;
        parcm::obs::Registry* prev_registry = parcm::obs::set_thread_registry(&registry);
        parcm::AnalysisCache* prev_cache = parcm::set_thread_analysis_cache(&cache);
        GraphPair graphs;
        ProgramRun again = validate_one(w_.inputs[i], &graphs);
        parcm::set_thread_analysis_cache(prev_cache);
        parcm::obs::set_thread_registry(prev_registry);
        if (again.output != r->runs[i].output && r->runs[i].error.empty()) {
          r->runs[i].error = "a repeat gave other verdicts: " + again.output;
        }
        samples[i].push_back(again.latency_ms);
      }
    }
    for (std::size_t i : light) r->runs[i].latency_ms = median(samples[i]);
  }

  // One program: compile, `full`, then both oracles with the pass's
  // remarks. Fills `graphs` when the program got as far as the oracles.
  ProgramRun validate_one(const Input& in, GraphPair* graphs) {
    ProgramRun run;
    Clock::time_point t0 = Clock::now();
    try {
      parcm::DiagnosticSink diag;
      parcm::Graph before = parcm::lang::compile(in.source, diag);
      if (!diag.ok()) throw std::runtime_error("parse: " + diag.to_string());
      parcm::obs::RemarkSink sink;
      sink.set_enabled(true);
      parcm::obs::RemarkSink* prev_sink = parcm::obs::set_thread_remark_sink(&sink);
      parcm::PipelineResult res;
      try {
        res = pipeline_.run(before);
      } catch (...) {
        parcm::obs::set_thread_remark_sink(prev_sink);
        throw;
      }
      parcm::obs::set_thread_remark_sink(prev_sink);
      std::vector<parcm::obs::Remark> remarks = sink.snapshot();
      parcm::verify::Verdict vm =
          parcm::verify::vm_differential_check(before, res.graph, {}, &remarks);
      parcm::verify::Verdict exact =
          parcm::verify::differential_check(before, res.graph, {}, &remarks);
      run.latency_ms = seconds_since(t0) * 1e3;
      run.done = true;
      run.error = verdict_problem(exact, vm);
      run.output = exact.summary() + " | " + vm.summary();
      *graphs = {std::move(before), std::move(res.graph)};
    } catch (const std::exception& e) {
      run.latency_ms = seconds_since(t0) * 1e3;
      run.error = e.what();
    }
    return run;
  }

  Workload w_;
  parcm::driver::Manifest manifest_;
  parcm::driver::BatchOptions batch_;
  parcm::Pipeline pipeline_ = parcm::default_pipeline();
};

// The set-up work: check the paper's known answers (fixed work that also
// initialises the compiler, pipeline and both oracles on first use),
// generate the inputs from the seed, and compile each (large: check its
// size). Known-answer failures go to `problems`.
Workload set_up(const Options& o, std::vector<std::string>* problems) {
  for (const KnownAnswer& a : check_known_answers()) {
    if (!a.problem.empty()) problems->push_back(a.name + ": " + a.problem);
  }
  Workload w = make_workload(o.workload, o.seed);
  for (const Input& in : w.inputs) {
    parcm::DiagnosticSink diag;
    parcm::Graph g = parcm::lang::compile(in.source, diag);
    if (!diag.ok()) {
      throw std::runtime_error("input " + in.id + " does not parse: " +
                               diag.to_string());
    }
    if (w.name == "large" &&
        (g.num_nodes() < kLargeMinNodes || g.num_nodes() > kLargeMaxNodes)) {
      throw std::runtime_error("input " + in.id + " has " +
                               std::to_string(g.num_nodes()) + " nodes");
    }
  }
  return w;
}

// Pins this process to the last `cpus` CPUs it may run on. Unpinned,
// identical single-thread runs fell into speed modes up to 25% apart
// (README.md, "Noise"). Where the call is refused, runs are just noisier.
void pin_to_last_cpus(std::size_t cpus) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpus > 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &chosen);
    --cpus;
  }
  sched_setaffinity(0, sizeof(chosen), &chosen);
}

// Starts this harness again with --setup-only 1 and waits for it. Returns
// the seconds from just before the spawn to the end of the child's set-up,
// which the child prints on its stdout.
double setup_sample(const Options& o) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("cannot create a pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string seed = std::to_string(o.seed);
  const char* argv[] = {"e2e_harness", "--workload", o.workload.c_str(),
                        "--seed", seed.c_str(), "--seconds", "1", "--trace",
                        "0", "--setup-only", "1", nullptr};
  pid_t pid = 0;
  const Clock::time_point t0 = Clock::now();
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start a set-up process");
  }
  std::string out;
  char buf[128];
  for (;;) {
    const ssize_t k = read(fds[0], buf, sizeof(buf));
    if (k > 0) {
      out.append(buf, static_cast<std::size_t>(k));
    } else if (k == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty()) {
    throw std::runtime_error("set-up process failed");
  }
  return static_cast<double>(std::stoll(out) - clock_ns(t0)) / 1e9;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Options& o) {
  // ---- set-up
  std::vector<std::string> known_answer_problems;
  if (o.setup_only) {
    Bench bench(set_up(o, &known_answer_problems));
    std::printf("%lld\n", clock_ns(Clock::now()));
    return 0;
  }
  // Only the untraced run reports setup_s. The set-up processes are not
  // pinned: pinned to one CPU, their times were longer and noisier.
  std::vector<double> setups;
  std::string setup_times;
  for (int k = 0; !o.trace && k < kSetupSamples; ++k) {
    setups.push_back(setup_sample(o));
    setup_times += " " + std::to_string(setups.back());
  }
  Bench bench(set_up(o, &known_answer_problems));
  const Workload& w = bench.workload();
  // One CPU per batch worker; the harness thread waits while they run.
  pin_to_last_cpus(std::max<std::size_t>(1, w.jobs));
  const std::size_t n = w.inputs.size();

  // ---- timed phase
  std::size_t num_rounds = 0;
  double timed_s = 0;
  // Per round: throughput, latency p50 and tail, CPU per program. The run
  // reports the median over its rounds, so one disturbed round does not
  // move it.
  std::vector<double> round_rate, round_p50, round_tail, round_cpu;
  std::vector<GraphPair> validate_graphs;
  std::vector<std::string> first_outputs;
  // Per round and program: why the run failed, or empty.
  std::vector<std::vector<std::string>> round_errors;
  std::int64_t first_round_end_ns = 0;
  std::string round_walls;
  if (o.trace) tracing_start();
  while (num_rounds == 0 || timed_s < o.seconds) {
    Round r = bench.run_round(num_rounds == 0 ? &validate_graphs : nullptr,
                              !o.trace);
    if (num_rounds == 0) first_round_end_ns = now_ns();
    timed_s += r.wall_s;
    std::vector<double> latencies;
    for (const ProgramRun& run : r.runs) latencies.push_back(run.latency_ms);
    round_rate.push_back(static_cast<double>(n) / r.wall_s);
    round_p50.push_back(percentile(latencies, 50));
    round_tail.push_back(percentile(latencies, w.tail_percentile));
    round_cpu.push_back(r.cpu_s * 1e3 / static_cast<double>(n));
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.3f/%.3f", r.wall_s, r.cpu_s);
    round_walls += buf;
    std::vector<std::string> outputs, errors;
    for (ProgramRun& run : r.runs) {
      outputs.push_back(std::move(run.output));
      errors.push_back(run.done || !run.error.empty() ? run.error : "not done");
    }
    if (num_rounds == 0) {
      first_outputs = std::move(outputs);
    } else {
      for (std::size_t i : differing_outputs(outputs, first_outputs)) {
        if (errors[i].empty()) errors[i] = "output differs from round 1";
      }
    }
    round_errors.push_back(std::move(errors));
    ++num_rounds;
  }
  if (o.trace) tracing_stop();
  const double programs = static_cast<double>(num_rounds * n);

  // ---- check phase
  const bool correct = known_answer_problems.empty();
  for (const std::string& p : known_answer_problems) {
    std::fprintf(stderr, "known answer failed: %s\n", p.c_str());
  }
  // Single-thread reference runs in their own registry and cache.
  parcm::obs::Registry check_registry;
  parcm::AnalysisCache check_cache;
  parcm::obs::Registry* prev_registry = parcm::obs::set_thread_registry(&check_registry);
  parcm::AnalysisCache* prev_cache = parcm::set_thread_analysis_cache(&check_cache);
  // Why program i fails in every round (checks of its one output), or empty.
  std::vector<std::string> program_problem(n);
  std::uint64_t time_in = 0, time_out = 0, nodes_in = 0, nodes_out = 0;
  std::size_t slower_programs = 0, unfinished_programs = 0, unfinished_paths = 0;
  const parcm::Pipeline reference = parcm::default_pipeline();
  for (std::size_t i = 0; i < n; ++i) {
    const Input& in = w.inputs[i];
    if (!round_errors[0][i].empty() && w.jobs == 0) continue;  // no graphs
    try {
      parcm::Graph g_in, g_out;
      if (w.jobs > 0) {
        g_in = parcm::lang::compile_or_throw(in.source);
        g_out = reference.run(g_in).graph;
        if (parcm::to_text(g_out) != first_outputs[i]) {
          program_problem[i] = "output differs from a single-thread Pipeline::run";
        }
      } else {
        g_in = std::move(validate_graphs[i].in);
        g_out = std::move(validate_graphs[i].out);
      }
      nodes_in += g_in.num_nodes();
      nodes_out += g_out.num_nodes();
      PathTally t = compare_paths(g_in, g_out, in.path_seed);
      time_in += t.time_in;
      time_out += t.time_out;
      if (t.slower > 0) ++slower_programs;
      if (t.unfinished > 0) {
        ++unfinished_programs;
        unfinished_paths += t.unfinished;
      }
      if (program_problem[i].empty()) program_problem[i] = path_problem(t);
    } catch (const std::exception& e) {
      program_problem[i] = std::string("check did not complete: ") + e.what();
    }
  }
  parcm::set_thread_analysis_cache(prev_cache);
  parcm::obs::set_thread_registry(prev_registry);

  std::uint64_t failed = 0;
  for (std::size_t r = 0; r < num_rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& why = program_problem[i].empty() ? round_errors[r][i]
                                                          : program_problem[i];
      if (why.empty()) continue;
      ++failed;
      if (r == 0 || round_errors[r][i] != round_errors[0][i]) {
        std::fprintf(stderr, "failed: %s (round %zu): %s\n",
                     w.inputs[i].id.c_str(), r + 1, why.c_str());
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::fprintf(stderr,
               "%s seed %llu: %zu rounds of %zu programs in %.3f s timed; "
               "%llu of %.0f failed; tail percentile p%g\n",
               w.name.c_str(), static_cast<unsigned long long>(o.seed),
               num_rounds, n, timed_s, static_cast<unsigned long long>(failed),
               programs, w.tail_percentile);
  if (unfinished_paths > 0) {
    std::fprintf(stderr,
                 "%zu paths of %zu programs not compared: the input ran out "
                 "of the step budget\n",
                 unfinished_paths, unfinished_programs);
  }
  if (!o.trace) std::fprintf(stderr, "set-up s:%s\n", setup_times.c_str());
  std::fprintf(stderr, "round wall/cpu s:%s; process user %.2f s, sys %.2f s, "
               "%ld minor faults\n", round_walls.c_str(),
               static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6,
               static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6,
               ru.ru_minflt);

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"programs_per_s", median(round_rate), "1/s"},
        {"latency_p50_ms", median(round_p50), "ms"},
        {"latency_tail_ms", median(round_tail), "ms"},
        {"cpu_ms_per_program", median(round_cpu), "ms"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"setup_s", median(setups), "s"},
        {"exec_time_ratio", ratio(static_cast<double>(time_out),
                                  static_cast<double>(time_in)), "ratio"},
        {"code_size_ratio", ratio(static_cast<double>(nodes_out),
                                  static_cast<double>(nodes_in)), "ratio"},
    };
  } else {
    Recording rec = recording();
    LayerTimes lt = account(rec);
    const double traced_ms = timed_s * 1e3;
    auto per_program = [&](double ms) { return ms / programs; };
    auto self = [&](Layer l) { return per_program(lt.self_ms[static_cast<std::size_t>(l)]); };
    auto per_round = [&](Count c) {
      return static_cast<double>(rec.counts[static_cast<std::size_t>(c)]) /
             static_cast<double>(num_rounds);
    };
    auto counted = [&](Count c) {
      return static_cast<double>(rec.counts[static_cast<std::size_t>(c)]);
    };
    // Batch facts; all 0 on validate, which calls no run_batch.
    const double batch_programs = counted(Count::kPrograms);
    const double workers = std::max(1.0, per_round(Count::kWorkers));
    const double idle_ms = lt.total_ms[static_cast<std::size_t>(Layer::kRunBatch)] -
                           counted(Count::kProgramWallNs) / 1e6 / workers;
    const double unattributed_ms = traced_ms - lt.covered_ms;
    metrics = {
        {"lang.compile_ms", self(Layer::kCompile), "ms"},
        {"ir.validate_ms", self(Layer::kValidate), "ms"},
        {"ir.print_ms", self(Layer::kPrint), "ms"},
        {"ir.nodes_in", per_round(Count::kNodesIn), "count"},
        {"ir.nodes_out", per_round(Count::kNodesOut), "count"},
        {"dfa.safety_ms", self(Layer::kSafety), "ms"},
        {"motion.pipeline_ms", per_program(lt.total_ms[static_cast<std::size_t>(Layer::kPipeline)]), "ms"},
        {"motion.pcm_ms", self(Layer::kPcm), "ms"},
        {"motion.sinking_ms", self(Layer::kSinking), "ms"},
        {"motion.dce_ms", self(Layer::kDce), "ms"},
        {"motion.pcm_actions", per_round(Count::kPcmActions), "count"},
        {"motion.sinking_sunk", per_round(Count::kSinkingSunk), "count"},
        {"motion.dce_eliminated", per_round(Count::kDceEliminated), "count"},
        {"motion.slower_programs", static_cast<double>(slower_programs), "count"},
        {"analyses.constprop_ms", self(Layer::kConstprop), "ms"},
        {"analyses.constprop_folds", per_round(Count::kConstpropFolds), "count"},
        {"analyses.liveness_ms", self(Layer::kLiveness), "ms"},
        {"analyses.cache_lookups", per_round(Count::kCacheLookups), "count"},
        {"analyses.cache_builds", per_round(Count::kCacheBuilds), "count"},
        {"obs.bookkeeping_ms", self(Layer::kPipeline), "ms"},
        {"obs.registry_names", per_round(Count::kRegistryNames), "count"},
        {"driver.batch_ms", self(Layer::kRunBatch), "ms"},
        {"driver.idle_ms", per_program(idle_ms), "ms"},
        {"driver.steals", per_round(Count::kSteals), "count"},
        {"driver.allocs_per_program",
         batch_programs > 0 ? counted(Count::kAllocs) / batch_programs : 0, "count"},
        {"verify.exact_ms", self(Layer::kExact), "ms"},
        {"verify.vm_ms", self(Layer::kVm), "ms"},
        {"verify.exact_decided", per_round(Count::kExactDecided), "count"},
        {"verify.inconclusive", per_round(Count::kInconclusive), "count"},
        {"semantics.behaviours", per_round(Count::kBehaviours), "count"},
        {"vm.lower_ms", self(Layer::kVmLower), "ms"},
        {"vm.run_ms", self(Layer::kVmRun), "ms"},
        {"vm.instrs", per_round(Count::kVmInstrs), "count"},
        {"unattributed_ms", per_program(unattributed_ms), "ms"},
        {"trace.wall_ms", per_program(traced_ms), "ms"},
    };
    if (!o.trace_out.empty()) {
      if (!write_chrome_trace(rec, first_round_end_ns, o.trace_out)) {
        throw std::runtime_error("cannot write trace file " + o.trace_out);
      }
      std::fprintf(stderr, "trace of round 1: %s\n", o.trace_out.c_str());
    }
  }
  print_result(correct, static_cast<std::uint64_t>(programs), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options o = e2e::parse_args(argc, argv);
  try {
    return e2e::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_harness: error: %s\n", e.what());
    return 1;
  }
}
