// parcm_opt — command-line driver: read a parcm-language program, run code
// motion, print the result.
//
//   parcm_opt [options] [file]          (stdin when no file)
//     --naive       use the refuted naive placement instead of PCM
//     --dce         run dead-assignment elimination after code motion
//     --observe V   with --dce: only variable V (repeatable) is observable
//     --dot         emit Graphviz instead of the node-list text
//     --report      print the per-term insertion/replacement report
//     --table TERM  print the safety table for a term, e.g. --table 'a + b'
//     --figure ID   load a paper figure instead of a file (1, 2, 3a, ... 10)
//     --stats       print pass wall times, solver iteration counts and
//                   motion counters (the obs registry + trace tree)
//     --trace-json FILE  write a Chrome trace_event file for chrome://tracing
//     --validate    re-check the transformation with the differential
//                   translation-validation oracle; non-zero exit and a
//                   witnessing interleaving on divergence
//     --replay BUNDLE  re-run a parcm-forensic-v1 bundle (written by
//                   parcm_batch/parcm_fuzz --forensics-dir) under its
//                   recorded config and compare the outcome byte-for-byte
//                   against the one captured at failure time; exit 0 iff
//                   they match
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/forensic.hpp"
#include "figures/figures.hpp"
#include "ir/printer.hpp"
#include "ir/terms.hpp"
#include "lang/lower.hpp"
#include "motion/dce.hpp"
#include "motion/pcm.hpp"
#include "motion/report.hpp"
#include "obs/alloc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/verify.hpp"

int main(int argc, char** argv) {
  using namespace parcm;
  bool naive = false, dot = false, report = false, dce = false;
  bool stats = false, validate = false;
  std::vector<std::string> observed;
  std::string table_term, figure_id, file, trace_json, replay_path;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--naive") {
      naive = true;
    } else if (a == "--dot") {
      dot = true;
    } else if (a == "--report") {
      report = true;
    } else if (a == "--dce") {
      dce = true;
    } else if (a == "--stats") {
      stats = true;
    } else if (a == "--validate") {
      validate = true;
    } else if (a == "--trace-json" && i + 1 < args.size()) {
      trace_json = args[++i];
    } else if (a.rfind("--trace-json=", 0) == 0) {
      trace_json = a.substr(std::string("--trace-json=").size());
    } else if (a == "--observe" && i + 1 < args.size()) {
      observed.push_back(args[++i]);
    } else if (a == "--table" && i + 1 < args.size()) {
      table_term = args[++i];
    } else if (a == "--figure" && i + 1 < args.size()) {
      figure_id = args[++i];
    } else if (a == "--replay" && i + 1 < args.size()) {
      replay_path = args[++i];
    } else if (a.rfind("--replay=", 0) == 0) {
      replay_path = a.substr(std::string("--replay=").size());
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: parcm_opt [--naive] [--dot] [--report] [--stats] "
                   "[--validate] [--trace-json FILE] [--table TERM] "
                   "[--figure ID] [--replay BUNDLE] [file]\n";
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown option " << a << "\n";
      return 2;
    } else {
      file = a;
    }
  }

  if (!replay_path.empty()) {
    driver::ReplayResult rr = driver::replay_bundle(replay_path);
    if (!rr.loaded) {
      std::cerr << "replay: " << rr.error << "\n";
      return 2;
    }
    std::cout << "bundle:  " << replay_path << "\n"
              << "program: " << rr.id << "\n"
              << "reason:  " << rr.reason << "\n"
              << "status:  " << driver::job_status_name(rr.result.status)
              << "\n";
    if (!rr.result.error.empty()) {
      std::cout << "error:   " << rr.result.error << "\n";
    }
    if (!rr.result.validation.empty()) {
      std::cout << "oracle:  " << rr.result.validation << "\n";
    }
    if (rr.match) {
      std::cout << "replay MATCHES the recorded outcome byte-for-byte\n";
      return 0;
    }
    std::cout << "replay DIVERGES from the recorded outcome\n"
              << "-- recorded --\n" << rr.expected << "\n"
              << "-- replayed --\n" << rr.actual << "\n";
    return 3;
  }

  // Spans are recorded whenever stats or a trace file were requested; the
  // sink costs nothing otherwise.
  if (stats || !trace_json.empty()) obs::trace().set_enabled(true);

  std::string source;
  if (!figure_id.empty()) {
    source = figures::figure_source(figure_id);
  } else if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open " << file << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    source = ss.str();
  }

  DiagnosticSink sink;
  Graph program = lang::compile(source, sink);
  if (!sink.ok()) {
    std::cerr << sink.to_string() << "\n";
    return 1;
  }

  MotionResult result = naive ? naive_parallel_code_motion(program)
                              : parallel_code_motion(program);
  if (dce) {
    DceOptions dce_opts;
    dce_opts.observed = observed;
    DceResult cleaned = eliminate_dead_assignments(result.graph, dce_opts);
    result.graph = std::move(cleaned.graph);
    if (report) {
      std::cout << "dead assignments removed: " << cleaned.eliminated.size()
                << "\n";
    }
  }
  if (report) std::cout << motion_report(result);
  if (!table_term.empty()) {
    TermTable terms(result.graph);
    std::cout << safety_table(result.graph, result,
                              terms.find(result.graph, table_term));
  }
  std::cout << (dot ? to_dot(result.graph, file.empty() ? "parcm" : file)
                    : to_text(result.graph));
  if (validate) {
    verify::Verdict v = verify::differential_check(program, result.graph);
    std::cout << "validate: " << v.summary() << "\n";
    if (!v.ok()) {
      std::cerr << "translation validation FAILED\n";
      if (v.witness.has_value()) std::cerr << v.witness_text() << "\n";
      return 3;
    }
  }
  if (stats) {
    std::cout << "\n== observability ==\n" << obs::registry().to_string();
    if (obs::alloc_hook_active()) {
      std::cout << "allocations: " << obs::thread_alloc_count() << " ("
                << obs::thread_alloc_bytes() << " bytes requested)\n";
    }
    std::cout << "trace:\n" << obs::trace().tree();
  }
  if (!trace_json.empty()) {
    std::ofstream out(trace_json);
    if (!out) {
      std::cerr << "cannot write " << trace_json << "\n";
      return 2;
    }
    out << obs::trace().chrome_json();
    std::cerr << "wrote " << trace_json << "\n";
  }
  return 0;
}
