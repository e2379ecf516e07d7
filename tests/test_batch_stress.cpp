// Batch-driver stress suite (ctest -L batch): failure isolation, timeout
// containment, wall-limit backpressure and counter balance under load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "driver/driver.hpp"
#include "driver/manifest.hpp"
#include "lang/unparse.hpp"
#include "verify/fuzz.hpp"

namespace parcm {
namespace {

driver::Manifest stress_corpus(std::size_t n) {
  RandomProgramOptions gen = verify::default_fuzz_gen();
  gen.target_stmts = 5;  // small programs: the point is volume, not depth
  return driver::Manifest::lazy(n, "stress", [gen](std::size_t i) {
    return lang::to_source(verify::fuzz_program(99, i, gen));
  });
}

void expect_balanced(const driver::BatchReport& r) {
  EXPECT_EQ(r.totals.submitted, r.totals.done + r.totals.failed +
                                    r.totals.timed_out + r.totals.skipped);
  EXPECT_EQ(r.programs.size(), r.totals.submitted);
}

// 500 programs, one injected per-program timeout and one throwing job: the
// batch completes, the two casualties are isolated with their own statuses,
// and the books balance.
TEST(BatchStress, FaultInjection500) {
  driver::Manifest m = stress_corpus(500);
  driver::BatchOptions opt;
  opt.jobs = 8;
  opt.keep_output = false;
  opt.timeout_seconds = 0.2;
  opt.test_before_job = [](std::size_t index) {
    if (index == 137) {  // outsleep the deadline -> kTimedOut
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    if (index == 273) throw std::runtime_error("injected fault");
  };
  driver::BatchReport r = driver::run_batch(m, opt);
  expect_balanced(r);
  EXPECT_EQ(r.totals.submitted, 500u);
  EXPECT_EQ(r.totals.done, 498u);
  EXPECT_EQ(r.totals.timed_out, 1u);
  EXPECT_EQ(r.totals.failed, 1u);
  EXPECT_EQ(r.programs[137].status, driver::JobStatus::kTimedOut);
  EXPECT_EQ(r.programs[273].status, driver::JobStatus::kFailed);
  EXPECT_NE(r.programs[273].error.find("injected fault"), std::string::npos);
  EXPECT_FALSE(r.ok());
  // Results land in manifest slots regardless of completion order.
  for (std::size_t i = 0; i < r.programs.size(); ++i) {
    EXPECT_EQ(r.programs[i].index, i);
  }
}

TEST(BatchStress, ParseFailureIsIsolatedNotFatal) {
  driver::Manifest m = driver::Manifest::from_sources({
      {"good", "x := 1; y := x + 1;"},
      {"bad", "x := := garbage ("},
      {"alsogood", "a := 2;"},
  });
  driver::BatchOptions opt;
  opt.jobs = 2;
  driver::BatchReport r = driver::run_batch(m, opt);
  expect_balanced(r);
  EXPECT_EQ(r.totals.done, 2u);
  EXPECT_EQ(r.totals.failed, 1u);
  EXPECT_EQ(r.programs[1].status, driver::JobStatus::kFailed);
  EXPECT_NE(r.programs[1].error.find("parse"), std::string::npos);
}

// The batch wall limit stops scheduling: late jobs report kSkipped and the
// counters still balance.
TEST(BatchStress, WallLimitSkipsUnstartedJobs) {
  driver::Manifest m = stress_corpus(64);
  driver::BatchOptions opt;
  opt.jobs = 2;
  opt.keep_output = false;
  opt.wall_limit_seconds = 0.02;
  opt.test_before_job = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  driver::BatchReport r = driver::run_batch(m, opt);
  expect_balanced(r);
  EXPECT_GT(r.totals.skipped, 0u);
  EXPECT_GT(r.totals.done, 0u);
  EXPECT_EQ(r.totals.failed, 0u);
}

// A runner that throws on every job still yields a complete, balanced
// report — the driver's exception containment is per-program.
TEST(BatchStress, EveryJobThrowing) {
  driver::Manifest m = stress_corpus(50);
  driver::BatchOptions opt;
  opt.jobs = 4;
  opt.runner = [](const driver::BatchJob&, std::size_t index,
                  driver::WorkerContext&, driver::ProgramResult&) {
    throw std::runtime_error("boom " + std::to_string(index));
  };
  driver::BatchReport r = driver::run_batch(m, opt);
  expect_balanced(r);
  EXPECT_EQ(r.totals.failed, 50u);
  EXPECT_EQ(r.programs[49].error, "boom 49");
}

// Custom runners get scheduling + containment but keep full control of the
// payload; each index is visited exactly once.
TEST(BatchStress, CustomRunnerEachIndexOnce) {
  constexpr std::size_t kN = 400;
  std::vector<std::atomic<int>> visits(kN);
  driver::Manifest m =
      driver::Manifest::lazy(kN, "t", [](std::size_t) { return ""; });
  driver::BatchOptions opt;
  opt.jobs = 8;
  opt.runner = [&visits](const driver::BatchJob&, std::size_t index,
                         driver::WorkerContext&, driver::ProgramResult&) {
    visits[index].fetch_add(1);
  };
  driver::BatchReport r = driver::run_batch(m, opt);
  expect_balanced(r);
  EXPECT_EQ(r.totals.done, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

// The cursor's one policy: jobs start biggest first, ties in manifest
// order. One worker makes the start order observable.
TEST(BatchStress, BiggestJobsStartFirst) {
  driver::Manifest m;
  for (std::size_t i = 0; i < 60; ++i) {
    driver::BatchJob job;
    job.id = "s" + std::to_string(i);
    job.size_hint = (i * 7) % 13;  // every size repeats: ties must stay stable
    m.jobs.push_back(std::move(job));
  }
  std::vector<std::size_t> expected(m.size());
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&m](std::size_t a, std::size_t b) {
                     return m.jobs[a].size_hint > m.jobs[b].size_hint;
                   });
  std::vector<std::size_t> started;
  driver::BatchOptions opt;
  opt.jobs = 1;
  opt.test_before_job = [&started](std::size_t index) {
    started.push_back(index);
  };
  opt.runner = [](const driver::BatchJob&, std::size_t, driver::WorkerContext&,
                  driver::ProgramResult&) {};
  driver::BatchReport r = driver::run_batch(m, opt);
  EXPECT_EQ(r.totals.done, 60u);
  EXPECT_EQ(started, expected);
}

// Big-first scheduling: with wildly mixed sizes the report still carries
// every result in manifest order and the totals hold.
TEST(BatchStress, MixedSizesBalance) {
  driver::Manifest m;
  for (std::size_t i = 0; i < 120; ++i) {
    driver::BatchJob job;
    job.id = "m" + std::to_string(i);
    std::string stmt = "x := x + " + std::to_string(i) + "; ";
    std::string src;
    for (std::size_t k = 0; k <= i % 40; ++k) src += stmt;
    job.size_hint = src.size();
    job.source = std::move(src);
    m.jobs.push_back(std::move(job));
  }
  driver::BatchOptions opt;
  opt.jobs = 6;
  opt.keep_output = false;
  driver::BatchReport r = driver::run_batch(m, opt);
  expect_balanced(r);
  EXPECT_EQ(r.totals.done, 120u);
  for (std::size_t i = 0; i < r.programs.size(); ++i) {
    EXPECT_EQ(r.programs[i].id, "m" + std::to_string(i));
  }
}

}  // namespace
}  // namespace parcm
