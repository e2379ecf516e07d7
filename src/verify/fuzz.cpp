#include "verify/fuzz.hpp"

#include <chrono>
#include <fstream>
#include <sstream>

#include "driver/driver.hpp"
#include "driver/forensic.hpp"
#include "lang/lower.hpp"
#include "lang/unparse.hpp"
#include "motion/bcm.hpp"
#include "motion/code_motion.hpp"
#include "motion/dce.hpp"
#include "motion/lcm.hpp"
#include "motion/pipeline.hpp"
#include "motion/sinking.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/remarks.hpp"
#include "semantics/cost.hpp"
#include "support/diagnostics.hpp"
#include "verify/reduce.hpp"

namespace parcm::verify {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15uLL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9uLL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBuLL;
  return x ^ (x >> 31);
}

// Seeded paths per program for the cost check.
constexpr std::uint64_t kCostPaths = 16;

CodeMotionConfig injected_config(const InjectOptions& inject) {
  CodeMotionConfig c;
  if (!inject.enabled) return c;
  if (inject.mode == "naive") {
    c.variant = SafetyVariant::kNaive;
  } else if (inject.mode == "no-privatize") {
    c.privatize_temps = false;
  } else if (inject.mode == "no-parend-export") {
    c.parend_export_rule = false;
  } else if (inject.mode == "no-sink") {
    c.sink_anchors = false;
  } else {
    PARCM_CHECK(false, "unknown injection mode: " + inject.mode);
  }
  return c;
}

bool sequential_pipeline(const std::string& name) {
  return name == "bcm" || name == "lcm";
}

// Phase-1 result of one program: everything the sequential tally/reduce
// phase needs, computed independently per index (and so in parallel).
struct ProgramVerdict {
  bool ran = false;
  Verdict verdict;
  bool sampled_alarm = false;
  Budget confirmed_budget;
  // VM-oracle leg (oracle == "vm" or "both").
  bool vm_ran = false;
  Status vm_status = Status::kInconclusive;
  bool disagreement = false;  // VM divergence refuted by the exact oracle
  bool vm_missed = false;     // exact divergence the VM schedules missed
  bool slower = false;        // some seeded path runs slower after
};

ProgramVerdict check_one(const FuzzOptions& options,
                         const RandomProgramOptions& gen, std::size_t i) {
  ProgramVerdict slot;
  const auto check_start = std::chrono::steady_clock::now();
  std::uint64_t pseed = fuzz_program_seed(options.seed, i);
  PARCM_OBS_FLIGHT(obs::FlightKind::kRngStream, "fuzz-program", pseed, i);
  Rng rng(pseed);
  lang::Program ast = random_program_ast(rng, gen);
  Graph before = lang::lower(ast);

  // Capture the transforming pass's remark stream for P1-P3 provenance.
  // The sink is installed as a *thread* override, so on a batch worker it
  // shadows the worker's own sink instead of a process-global — per-program
  // streams stay exact at any --jobs value.
  obs::RemarkSink sink;
  sink.set_enabled(true);
  obs::RemarkSink* prev = obs::set_thread_remark_sink(&sink);
  Graph after;
  try {
    after = apply_named_pipeline(options.pipeline, before, options.inject);
  } catch (...) {
    obs::set_thread_remark_sink(prev);
    throw;
  }
  obs::set_thread_remark_sink(prev);
  std::vector<obs::Remark> remarks = sink.snapshot();

  for (std::uint64_t s = 0; s < kCostPaths && !slot.slower; ++s) {
    auto times = paired_execution_times(before, after, s * 7919 + 1);
    slot.slower = times.has_value() && times->second.time > times->first.time;
  }

  const bool use_vm = options.oracle == "vm" || options.oracle == "both";
  const bool use_exact = options.oracle != "vm";
  Verdict vm_verdict;
  if (use_vm) {
    vm_verdict = vm_differential_check(before, after, options.vm_budget,
                                       &remarks);
    slot.vm_ran = true;
    slot.vm_status = vm_verdict.status;
  }
  slot.verdict = use_exact ? differential_check(before, after, options.budget,
                                                &remarks)
                           : vm_verdict;
  if (options.oracle == "both") {
    if (vm_verdict.status == Status::kDiverged && slot.verdict.ok()) {
      // The VM only claims kDiverged against a complete original behaviour
      // set, so an exact refutation means one of the oracles is broken.
      slot.disagreement = true;
    }
    if (slot.verdict.status == Status::kDiverged && vm_verdict.ok()) {
      slot.vm_missed = true;
    }
  }
  slot.confirmed_budget = options.budget;
  if (slot.verdict.status == Status::kDiverged && !slot.verdict.exact) {
    // A sampled kDiverged is already sound — the oracle only reports it
    // when the original's behaviour set was enumerated to completion (an
    // incomplete reference yields kInconclusive instead). Still try the
    // two-sided exact re-check: an exact verdict carries the full
    // behaviour counts and is what the reducer wants to replay against.
    slot.confirmed_budget.max_exact_nodes =
        std::max(before.num_nodes(), after.num_nodes());
    slot.confirmed_budget.max_states = options.budget.max_states * 8;
    Verdict exact_verdict =
        differential_check(before, after, slot.confirmed_budget, &remarks);
    if (exact_verdict.exact) {
      if (use_vm && !use_exact && exact_verdict.ok()) {
        // The VM's divergence claim did not survive the exact re-check: a
        // soundness bug in one of the oracles, surfaced as a disagreement
        // rather than silently swallowed.
        slot.disagreement = true;
      }
      slot.verdict = exact_verdict;
    } else {
      // Kept as a sampled divergence; tracked separately so campaign
      // output shows how many finds lack an exact behaviour count.
      slot.sampled_alarm = true;
    }
  }
  slot.ran = true;
  PARCM_OBS_HIST(
      "verify.check_latency_ns",
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - check_start)
              .count()));
  PARCM_OBS_FLIGHT(obs::FlightKind::kOracleVerdict, status_name(slot.verdict.status),
                   slot.verdict.original_behaviours,
                   slot.verdict.transformed_behaviours);
  return slot;
}

}  // namespace

FuzzOptions::FuzzOptions() : gen(default_fuzz_gen()) {}

RandomProgramOptions default_fuzz_gen() {
  RandomProgramOptions gen;
  gen.target_stmts = 10;
  gen.max_par_depth = 2;
  gen.max_components = 3;
  gen.num_vars = 4;
  gen.while_permille = 30;  // keeps exact enumeration tractable
  gen.cond_permille = 200;
  gen.barrier_permille = 60;
  gen.recursive_permille = 200;
  gen.p2_shape_permille = 90;
  gen.p3_shape_permille = 90;
  return gen;
}

std::uint64_t fuzz_program_seed(std::uint64_t campaign_seed,
                                std::size_t index) {
  return mix(campaign_seed) ^ mix(static_cast<std::uint64_t>(index) + 1);
}

lang::Program fuzz_program(std::uint64_t campaign_seed, std::size_t index,
                           const RandomProgramOptions& gen) {
  Rng rng(fuzz_program_seed(campaign_seed, index));
  return random_program_ast(rng, gen);
}

namespace {

void suffix_expr_vars(lang::AExpr& e, const std::string& suffix) {
  if (e.a.is_var) e.a.name += suffix;
  if (e.b.is_var) e.b.name += suffix;
}

void suffix_block_vars(lang::Block& block, const std::string& suffix) {
  for (lang::Stmt& s : block) {
    if (!s.lhs.empty()) s.lhs += suffix;
    suffix_expr_vars(s.rhs, suffix);
    if (!s.cond.nondet) suffix_expr_vars(s.cond.expr, suffix);
    for (lang::Block& b : s.blocks) suffix_block_vars(b, suffix);
  }
}

}  // namespace

lang::Program fuzz_program_pooled(std::uint64_t campaign_seed,
                                  std::size_t index, std::size_t shapes,
                                  const RandomProgramOptions& gen) {
  if (shapes == 0) shapes = 1;
  lang::Program p = fuzz_program(campaign_seed, index % shapes, gen);
  std::size_t repetition = index / shapes;
  if (repetition > 0) {
    suffix_block_vars(p.body, "_r" + std::to_string(repetition));
  }
  return p;
}

Graph apply_named_pipeline(const std::string& name, const Graph& g,
                           const InjectOptions& inject) {
  if (name == "pcm" || name == "naive" || name == "full") {
    CodeMotionConfig config = injected_config(inject);
    if (name == "naive") config.variant = SafetyVariant::kNaive;
    if (name != "full") return run_code_motion(g, config).graph;
    Pipeline p;
    p.add("pcm", [config](Graph& in, std::size_t* actions) {
      MotionResult r = run_code_motion(in, config);
      *actions = r.num_insertions() + r.num_replacements();
      in = std::move(r.graph);
    });
    p.add_validate().add_constprop().add_validate().add_sinking()
        .add_validate().add_dce().add_validate();
    return p.run(g).graph;
  }
  PARCM_CHECK(!inject.enabled,
              "miscompile injection needs a code-motion stage; pipeline '" +
                  name + "' has none");
  if (name == "bcm") return busy_code_motion(g).graph;
  if (name == "lcm") return lazy_code_motion(g).graph;
  if (name == "sinking") return sink_partially_dead_assignments(g).graph;
  if (name == "dce") return eliminate_dead_assignments(g).graph;
  PARCM_CHECK(false, "unknown pipeline: " + name);
}

std::string FuzzOutcome::summary() const {
  std::ostringstream os;
  os << "fuzz: " << programs << " programs (" << exact << " exact, " << sampled
     << " sampled, " << inconclusive << " inconclusive) — " << divergences
     << " divergence" << (divergences == 1 ? "" : "s");
  if (sampled_alarms > 0) {
    os << ", " << sampled_alarms << " sampled-only divergence"
       << (sampled_alarms == 1 ? "" : "s");
  }
  if (vm_checked > 0) {
    os << "; vm oracle: " << vm_checked << " checked, " << vm_divergences
       << " diverged, " << oracle_disagreements << " disagreement"
       << (oracle_disagreements == 1 ? "" : "s");
    if (vm_missed > 0) os << ", " << vm_missed << " missed by schedules";
  }
  if (slower > 0) {
    os << "; " << slower << " program" << (slower == 1 ? "" : "s")
       << " slower on some seeded path (#";
    for (std::size_t k = 0; k < slower_indices.size(); ++k) {
      os << (k > 0 ? ", #" : "") << slower_indices[k];
    }
    os << (slower > slower_indices.size() ? ", ..." : "") << ")";
  }
  for (const FuzzFailure& f : failures) {
    os << "\n  #" << f.index << " seed 0x" << std::hex << f.program_seed
       << std::dec << ": " << f.verdict.summary() << "\n    reduced to "
       << f.reduced_stmts << " statements / " << f.reduced_nodes << " nodes";
    if (!f.repro_path.empty()) os << " -> " << f.repro_path;
  }
  return os.str();
}

std::string FuzzOutcome::to_json(bool pretty) const {
  obs::JsonWriter w(pretty);
  w.begin_object();
  w.key("schema").value("parcm-fuzz-v1");
  w.key("programs").value(programs);
  w.key("exact").value(exact);
  w.key("sampled").value(sampled);
  w.key("inconclusive").value(inconclusive);
  w.key("divergences").value(divergences);
  w.key("sampled_alarms").value(sampled_alarms);
  w.key("vm_checked").value(vm_checked);
  w.key("vm_divergences").value(vm_divergences);
  w.key("oracle_disagreements").value(oracle_disagreements);
  w.key("vm_missed").value(vm_missed);
  w.key("slower").value(slower);
  w.key("slower_indices").begin_array();
  for (std::size_t i : slower_indices) w.value(i);
  w.end_array();
  w.key("failures").begin_array();
  for (const FuzzFailure& f : failures) {
    w.begin_object();
    w.key("index").value(f.index);
    w.key("program_seed").value(f.program_seed);
    w.key("status").value(status_name(f.verdict.status));
    w.key("witness").value(f.verdict.witness_text());
    w.key("pitfalls").begin_array();
    for (const std::string& p : f.verdict.pitfalls) w.value(p);
    w.end_array();
    w.key("reduced_stmts").value(f.reduced_stmts);
    w.key("reduced_nodes").value(f.reduced_nodes);
    w.key("reduced_source").value(f.reduced_source);
    w.key("repro_path").value(f.repro_path);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string render_repro_source(const FuzzFailure& f, const FuzzOptions& o) {
  std::ostringstream os;
  os << "// parcm_fuzz reproducer (minimized by verify::reduce_program)\n"
     << "// pipeline: " << o.pipeline;
  if (o.inject.enabled) os << "  inject: " << o.inject.mode;
  os << "\n// campaign seed: " << o.seed << "  program index: " << f.index
     << "  program seed: 0x" << std::hex << f.program_seed << std::dec << "\n"
     << "// verdict: " << f.verdict.summary() << "\n"
     << "// replay: parcm_fuzz --seed " << o.seed << " --count "
     << (f.index + 1) << " --pipeline " << o.pipeline;
  if (o.inject.enabled) os << " --inject " << o.inject.mode;
  os << "\n" << f.reduced_source;
  return os.str();
}

std::string render_regression_test(const FuzzFailure& f,
                                   const FuzzOptions& o) {
  std::ostringstream os;
  os << "// Ready-to-paste regression test for the reproducer above.\n"
     << "// Drop into tests/test_verify_repro.cpp (or any parcm test file).\n"
     << "TEST(VerifyRepro, Campaign" << o.seed << "Program" << f.index
     << ") {\n"
     << "  const char* kSource = R\"parcm(\n"
     << f.reduced_source << ")parcm\";\n"
     << "  Graph g = lang::compile_or_throw(kSource);\n"
     << "  verify::InjectOptions inject;\n";
  if (o.inject.enabled) {
    os << "  inject.enabled = true;\n"
       << "  inject.mode = \"" << o.inject.mode << "\";\n";
  }
  os << "  Graph t = verify::apply_named_pipeline(\"" << o.pipeline
     << "\", g, inject);\n"
     << "  verify::Verdict v = verify::differential_check(g, t);\n"
     << "  ASSERT_TRUE(v.exact);\n"
     << "  EXPECT_EQ(verify::Status::kDiverged, v.status);\n"
     << "}\n";
  return os.str();
}

FuzzOutcome run_fuzz(const FuzzOptions& options) {
  PARCM_OBS_TIMER("verify.fuzz.run");
  PARCM_CHECK(options.oracle == "exact" || options.oracle == "vm" ||
                  options.oracle == "both",
              "unknown oracle: " + options.oracle);
  FuzzOutcome out;
  RandomProgramOptions gen = options.gen;
  if (sequential_pipeline(options.pipeline)) {
    gen.max_par_depth = 0;
    gen.p2_shape_permille = 0;
    gen.p3_shape_permille = 0;
  }

  // Phase 1 — per-program check. Every slot is a pure function of
  // (options, index), so with jobs > 1 the loop fans out through the batch
  // driver: each worker writes only its own indices, and the sequential
  // phase below reads the slots in index order — the campaign outcome is
  // identical at any jobs value.
  std::vector<ProgramVerdict> slots(options.count);
  if (options.jobs != 1) {
    driver::BatchOptions batch;
    batch.jobs = options.jobs;
    batch.wall_limit_seconds = options.seconds;
    batch.keep_output = false;
    // check_one installs its own per-program sink; no batch-level capture.
    batch.collect_remarks = false;
    batch.runner = [&options, &gen, &slots](const driver::BatchJob&,
                                            std::size_t index,
                                            driver::WorkerContext&,
                                            driver::ProgramResult&) {
      slots[index] = check_one(options, gen, index);
    };
    driver::Manifest manifest = driver::Manifest::lazy(
        options.count, "fuzz", [](std::size_t) { return std::string(); });
    driver::BatchReport report = driver::run_batch(manifest, batch);
    for (const driver::ProgramResult& r : report.programs) {
      PARCM_CHECK(r.status != driver::JobStatus::kFailed,
                  "fuzz program #" + std::to_string(r.index) +
                      " failed: " + r.error);
    }
    // Re-emit the workers' pipeline/oracle metrics into the caller's
    // registry so a campaign reports the same counters at any jobs value
    // (timers/histograms additionally carry the driver's own scheduling
    // metrics, which only exist when the batch driver ran).
    for (const auto& [name, delta] : report.counters) {
      obs::registry().add_counter(name, delta);
    }
    for (const auto& [name, stat] : report.timers) {
      obs::registry().add_timer_stat(name, stat);
    }
    for (const auto& [name, hist] : report.histograms) {
      obs::registry().merge_hist(name, hist);
    }
  } else {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < options.count; ++i) {
      if (options.seconds > 0) {
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        if (elapsed.count() >= options.seconds) break;
      }
      slots[i] = check_one(options, gen, i);
    }
  }

  // Phase 2 — sequential tally, reduction and reporting in index order.
  for (std::size_t i = 0; i < options.count; ++i) {
    ProgramVerdict& slot = slots[i];
    if (!slot.ran) continue;  // seconds box fired before this index
    Verdict& verdict = slot.verdict;
    ++out.programs;
    PARCM_OBS_COUNT("verify.fuzz.programs", 1);
    if (slot.sampled_alarm) {
      ++out.sampled_alarms;
      PARCM_OBS_COUNT("verify.fuzz.sampled_alarms", 1);
    }
    if (slot.vm_ran) {
      ++out.vm_checked;
      if (slot.vm_status == Status::kDiverged) ++out.vm_divergences;
      if (slot.disagreement) {
        ++out.oracle_disagreements;
        PARCM_OBS_COUNT("verify.fuzz.oracle_disagreements", 1);
      }
      if (slot.vm_missed) ++out.vm_missed;
    }
    if (slot.slower) {
      ++out.slower;
      PARCM_OBS_COUNT("verify.fuzz.slower", 1);
      if (out.slower_indices.size() < options.max_failures) {
        out.slower_indices.push_back(i);
      }
    }
    if (verdict.exact) {
      ++out.exact;
    } else if (verdict.status == Status::kInconclusive) {
      ++out.inconclusive;
      continue;
    } else {
      ++out.sampled;
    }
    if (verdict.status != Status::kDiverged) continue;

    ++out.divergences;
    PARCM_OBS_COUNT("verify.fuzz.divergences", 1);
    if (out.failures.size() >= options.max_failures) continue;

    std::uint64_t pseed = fuzz_program_seed(options.seed, i);
    Rng rng(pseed);
    lang::Program ast = random_program_ast(rng, gen);

    FuzzFailure failure;
    failure.index = i;
    failure.program_seed = pseed;
    failure.verdict = verdict;
    failure.source = lang::to_source(ast);
    // Reduction replays against the exact predicate, so only exact finds
    // shrink; a sampled-only divergence keeps its full source.
    if (options.reduce && verdict.exact) {
      const std::string& pipeline = options.pipeline;
      const InjectOptions& inject = options.inject;
      const Budget& confirmed_budget = slot.confirmed_budget;
      Predicate still_fails = [&pipeline, &inject,
                               &confirmed_budget](const lang::Program& p) {
        try {
          Graph g = lang::lower(p);
          Graph t = apply_named_pipeline(pipeline, g, inject);
          Verdict v = differential_check(g, t, confirmed_budget);
          return v.exact && v.status == Status::kDiverged;
        } catch (const InternalError&) {
          // A reduction step that makes the pipeline itself throw is not
          // the failure we are chasing.
          return false;
        }
      };
      ReduceResult reduced = reduce_program(ast, still_fails);
      failure.reduced_source = lang::to_source(reduced.program);
      failure.reduced_stmts = reduced.stmts_after;
      failure.reduced_nodes = lang::lower(reduced.program).num_nodes();
    } else {
      failure.reduced_source = failure.source;
      failure.reduced_stmts = count_statements(ast);
      failure.reduced_nodes = lang::lower(ast).num_nodes();
    }
    if (!options.forensics_dir.empty()) {
      try {
        driver::ForensicBundle bundle;
        bundle.reason = "oracle-divergence";
        bundle.mode = "fuzz";
        bundle.id = "fuzz-" + std::to_string(options.seed) + "-" +
                    std::to_string(i);
        bundle.index = i;
        bundle.source = failure.source;
        bundle.campaign_seed = options.seed;
        bundle.program_seed = pseed;
        // The campaign's (possibly exact-escalated) verdict, for the human
        // reader; the replayable outcome below is computed at base budget.
        bundle.note = verdict.summary();
        bundle.config.pipeline = options.pipeline;
        bundle.config.validate = true;
        bundle.config.inject_mode =
            options.inject.enabled ? options.inject.mode : "";
        bundle.config.budget = options.budget;
        // Outcome through the replay core itself (one-job batch under the
        // recorded config), so `parcm_opt --replay` matches byte-for-byte
        // by construction.
        driver::Manifest one = driver::Manifest::from_sources(
            {{bundle.id, bundle.source}});
        driver::BatchOptions replay_opts = bundle.config.to_batch_options();
        replay_opts.keep_remark_lines = true;
        driver::BatchReport replayed = driver::run_batch(one, replay_opts);
        if (!replayed.programs.empty()) {
          bundle.outcome = replayed.programs[0];
          constexpr std::size_t kRemarkTail = 50;
          const std::vector<std::string>& lines = bundle.outcome.remarks;
          const std::size_t first =
              lines.size() > kRemarkTail ? lines.size() - kRemarkTail : 0;
          bundle.remark_tail.assign(lines.begin() +
                                        static_cast<std::ptrdiff_t>(first),
                                    lines.end());
          bundle.outcome.remarks.clear();
        }
        bundle.flight = obs::flight().snapshot();
        bundle.metrics_json = obs::registry().to_json(false);
        driver::write_bundle(bundle, options.forensics_dir);
      } catch (...) {
        // Forensics are best-effort; the campaign result stands either way.
      }
    }
    if (!options.out_dir.empty()) {
      std::ostringstream name;
      name << options.out_dir << "/repro_" << options.seed << "_" << i;
      failure.repro_path = name.str() + ".parcm";
      std::ofstream repro(failure.repro_path);
      if (repro) {
        repro << render_repro_source(failure, options);
        std::ofstream test(name.str() + ".regression.cpp");
        if (test) test << render_regression_test(failure, options);
      } else {
        failure.repro_path.clear();  // unwritable out_dir: keep the result
      }
    }
    out.failures.push_back(std::move(failure));
  }
  return out;
}

}  // namespace parcm::verify
