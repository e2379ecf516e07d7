// parcm_fuzz — differential translation-validation fuzzer.
//
// Generates random parallel programs, runs them through a transformation
// pipeline, and checks every result against the oracle
// (verify::differential_check) and against the executional-improvement
// guarantee: no program may run slower after the transformation on any of
// 16 seeded paths (paired_execution_times). Confirmed divergences are
// delta-debugged to a minimal reproducer. Fully reproducible: the same
// --seed yields the same programs, schedules and verdicts in any process.
//
//   parcm_fuzz [options]
//     --seed N          campaign seed (default 1)
//     --count N         programs to generate (default 100)
//     --jobs N          worker threads for the check phase (default 1;
//                       0 = hardware concurrency). The outcome is
//                       identical at any jobs value.
//     --pipeline NAME   bcm | lcm | pcm | naive | sinking | dce | full
//     --oracle NAME     exact | vm | both (default exact). vm checks final
//                       stores across seeded VM schedules
//                       (verify::vm_differential_check); both additionally
//                       counts cross-oracle disagreements
//     --vm-schedules N  seeded VM schedules per side (default 64)
//     --smoke           time-boxed CI mode (wall-clock cap, default 60 s)
//     --seconds S       wall-clock cap in seconds (0 = none)
//     --inject MODE     flip a safety ingredient to test the oracle:
//                       naive | no-privatize | no-parend-export | no-sink
//     --expect-catch    exit 0 iff the injected miscompile WAS caught (a
//                       divergence or a slower path)
//     --out DIR         write repro_<seed>_<i>.parcm + .regression.cpp
//     --no-reduce       skip delta debugging of failures
//     --atomic          check under atomic-assignment semantics instead of
//                       the Remark 2.1 split model (PCM is only expected to
//                       validate under split; see verify::Budget)
//     --target-stmts N  generator statement budget (default 10)
//     --max-par-depth N parallel nesting depth (default 2)
//     --max-states N    exact-enumeration state cap
//     --dump-program    print program #(--index, default 0) and exit
//                       (the byte-identity anchor of the reproducer
//                       contract; see tests/test_workload.cpp)
//     --index N         program index for --dump-program
//     --json            print the machine-readable campaign summary
//     --stats           print the verify.* observability counters
//     --metrics-json F  write the campaign's parcm-metrics-v1 registry dump
//                       (verify.* counters, check-latency histograms) to F;
//                       feed to parcm_profile for attribution
//     --forensics-dir D write a parcm-forensic-v1 bundle per confirmed
//                       divergence into D (replayable with
//                       parcm_opt --replay); also arms the flight recorder
//
// Exit codes: 0 clean (or caught, with --expect-catch), 1 unexpected
// divergence or slower path, 2 usage error, 4 injected miscompile not
// caught.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "lang/unparse.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "verify/fuzz.hpp"

int main(int argc, char** argv) {
  using namespace parcm;
  verify::FuzzOptions opt;
  bool expect_catch = false, dump_program = false, json = false, stats = false;
  std::size_t dump_index = 0;
  std::string metrics_json_path;

  std::vector<std::string> args(argv + 1, argv + argc);
  auto next_u64 = [&args](std::size_t* i) -> std::uint64_t {
    if (*i + 1 >= args.size()) {
      std::cerr << args[*i] << " needs a value\n";
      std::exit(2);
    }
    return std::stoull(args[++*i]);
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--seed") {
      opt.seed = next_u64(&i);
    } else if (a == "--count") {
      opt.count = static_cast<std::size_t>(next_u64(&i));
    } else if (a == "--jobs") {
      opt.jobs = static_cast<std::size_t>(next_u64(&i));
    } else if (a == "--pipeline") {
      if (i + 1 >= args.size()) return 2;
      opt.pipeline = args[++i];
    } else if (a == "--oracle") {
      if (i + 1 >= args.size()) return 2;
      opt.oracle = args[++i];
      if (opt.oracle != "exact" && opt.oracle != "vm" &&
          opt.oracle != "both") {
        std::cerr << "unknown oracle " << opt.oracle << "\n";
        return 2;
      }
    } else if (a == "--vm-schedules") {
      opt.vm_budget.schedules = static_cast<std::size_t>(next_u64(&i));
    } else if (a == "--smoke") {
      if (opt.seconds <= 0) opt.seconds = 60;
      opt.count = 100000;  // the wall clock is the real bound
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(next_u64(&i));
    } else if (a == "--inject") {
      if (i + 1 >= args.size()) return 2;
      opt.inject.enabled = true;
      opt.inject.mode = args[++i];
    } else if (a == "--expect-catch") {
      expect_catch = true;
    } else if (a == "--out") {
      if (i + 1 >= args.size()) return 2;
      opt.out_dir = args[++i];
    } else if (a == "--no-reduce") {
      opt.reduce = false;
    } else if (a == "--atomic") {
      opt.budget.split_assignments = false;
    } else if (a == "--target-stmts") {
      opt.gen.target_stmts = static_cast<std::size_t>(next_u64(&i));
    } else if (a == "--max-par-depth") {
      opt.gen.max_par_depth = static_cast<int>(next_u64(&i));
    } else if (a == "--max-states") {
      opt.budget.max_states = static_cast<std::size_t>(next_u64(&i));
    } else if (a == "--dump-program") {
      dump_program = true;
    } else if (a == "--index") {
      dump_index = static_cast<std::size_t>(next_u64(&i));
    } else if (a == "--json") {
      json = true;
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--metrics-json") {
      if (i + 1 >= args.size()) return 2;
      metrics_json_path = args[++i];
    } else if (a == "--forensics-dir") {
      if (i + 1 >= args.size()) return 2;
      opt.forensics_dir = args[++i];
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: parcm_fuzz [--seed N] [--count N] [--jobs N] "
                   "[--pipeline bcm|lcm|pcm|naive|sinking|dce|full] "
                   "[--oracle exact|vm|both] [--vm-schedules N] "
                   "[--smoke] [--seconds S] [--inject MODE] [--expect-catch] "
                   "[--out DIR] [--no-reduce] [--atomic] [--dump-program "
                   "[--index N]] [--json] [--stats] [--metrics-json FILE] "
                   "[--forensics-dir DIR]\n";
      return 0;
    } else {
      std::cerr << "unknown option " << a << "\n";
      return 2;
    }
  }

  if (dump_program) {
    std::cout << lang::to_source(
        verify::fuzz_program(opt.seed, dump_index, opt.gen));
    return 0;
  }

  // Bundles embed a flight-recorder snapshot; arm it before the campaign.
  if (!opt.forensics_dir.empty()) obs::flight().set_enabled(true);

  verify::FuzzOutcome outcome = verify::run_fuzz(opt);
  std::cout << outcome.summary() << "\n";
  for (const verify::FuzzFailure& f : outcome.failures) {
    std::cout << "--- reproducer #" << f.index << " ---\n"
              << f.reduced_source;
  }
  if (json) std::cout << outcome.to_json(true) << "\n";
  if (stats) std::cout << obs::registry().to_string();
  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_json_path << "\n";
      return 2;
    }
    out << obs::registry().to_json(true) << "\n";
    std::cerr << "wrote " << metrics_json_path << "\n";
  }

  if (expect_catch) {
    if (outcome.divergences > 0 || outcome.slower > 0) {
      std::cout << "injected miscompile caught\n";
      return 0;
    }
    std::cerr << "injected miscompile NOT caught\n";
    return 4;
  }
  return outcome.ok() ? 0 : 1;
}
