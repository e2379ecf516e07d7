// Workload inputs of the end-to-end benchmark.
//
// Every input is program source text, generated in set-up and handed to the
// library as in-memory sources; the seed reaches the library only through
// the programs it produced. README.md records why each workload looks the
// way it does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Input {
  std::string id;
  std::string source;
  // Base of the program's seeded branch paths (checks.hpp).
  std::uint64_t path_seed = 0;
};

struct Workload {
  std::string name;
  // Batch workers for driver::run_batch; 0 = the harness thread compiles
  // and validates each program itself (the validate workload).
  std::size_t jobs = 0;
  // Latency percentile reported as latency_tail_ms: the highest with ten
  // distinct programs of one round beyond it (checks.hpp, tail_percentile).
  // The corpus counts shapes, since renamed repeats of a shape cost alike.
  double tail_percentile = 0;
  std::vector<Input> inputs;
};

// Generates the named workload's inputs; the same (name, seed) gives the
// same inputs. The seed orders corpus's fixed programs, draws large's
// assignments and leaves validate's inputs as they are, so that which
// inputs fail a check does not change with the seed (large's straight-line
// programs were screened for that: README.md, "Failures today"). Throws
// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// splitmix64 finalizer, for deriving per-program seeds.
std::uint64_t mix(std::uint64_t x);

}  // namespace e2e
