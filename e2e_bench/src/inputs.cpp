#include "inputs.hpp"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "checks.hpp"
#include "lang/unparse.hpp"
#include "support/rng.hpp"
#include "verify/fuzz.hpp"

namespace e2e {

namespace {

// corpus: the programs of parcm_batch --gen 2000 --gen-shapes 200
// --gen-seed 47705, in an order drawn from --seed. The programs do not
// depend on --seed: `full` makes some pooled programs slower than their
// input (CHANGES.md, FOUND (a)), and a pool drawn per seed hits that on
// some seeds and not on others, so the share of failed programs would
// change with the seed. The campaign seed was drawn once at random and is
// not tuned.
constexpr std::uint64_t kCorpusCampaign = 47705;
constexpr std::size_t kCorpusPrograms = 2000;
constexpr std::size_t kCorpusShapes = 200;
constexpr std::size_t kCorpusJobs = 2;

// Programs of fuzz_program_pooled(42, i, 400, default_fuzz_gen()) whose
// `full` output is slower than their input on some of their seeded paths
// (FOUND (a)). They ride along in every corpus round, so that the check
// fails on every run whatever the pool holds.
constexpr std::uint64_t kReproCampaign = 42;
constexpr std::size_t kReproShapes = 400;
constexpr std::size_t kReproIndices[] = {239, 368};

// large: 40 programs from 8 to 22 segments (162 to 442 nodes).
constexpr std::size_t kLargePrograms = 40;
constexpr std::size_t kLargeMinSegments = 8;
constexpr std::size_t kLargeMaxSegments = 22;

// validate: programs 0..39 of the parcm_fuzz stream of one campaign, in
// stream order. The campaign seed was drawn once at random and is not
// tuned. --seed does not change these inputs: nearly all of the workload's
// cost sits in rare heavy programs (one of these 40 takes 95% of a run),
// so a per-seed draw would make every metric a lottery over how many heavy
// programs the seed drew.
constexpr std::uint64_t kValidateCampaign = 59547;
constexpr std::size_t kValidatePrograms = 40;

// One large-family program: `segments` repetitions of
// seq / par { ... } and { ... } / seq, four `x := a + b` assignments over
// v0..v9 per block, so each segment adds 20 flow-graph nodes.
std::string large_program(std::uint64_t seed, std::size_t segments) {
  parcm::Rng rng(seed);
  auto var = [&rng] { return "v" + std::to_string(rng.below(10)); };
  std::string src;
  auto block = [&](const char* indent) {
    for (int k = 0; k < 4; ++k) {
      std::string x = var(), a = var(), b = var();
      src += indent + x + " := " + a + " + " + b + ";\n";
    }
  };
  for (std::size_t s = 0; s < segments; ++s) {
    block("");
    src += "par {\n";
    block("  ");
    src += "} and {\n";
    block("  ");
    src += "}\n";
    block("");
  }
  return src;
}

double tail_for(std::size_t distinct_programs) {
  std::optional<double> q = tail_percentile(distinct_programs);
  if (!q.has_value()) {
    throw std::logic_error("a round must hold at least 40 programs");
  }
  return *q;
}

Input pooled(std::uint64_t campaign, std::size_t i, std::size_t shapes) {
  Input in;
  in.id = "gen" + std::to_string(campaign) + "#" + std::to_string(i);
  in.source = parcm::lang::to_source(parcm::verify::fuzz_program_pooled(
      campaign, i, shapes, parcm::verify::default_fuzz_gen()));
  in.path_seed = mix(campaign ^ mix(i));
  return in;
}

Workload corpus(std::uint64_t seed) {
  Workload w;
  w.name = "corpus";
  w.jobs = kCorpusJobs;
  for (std::size_t i = 0; i < kCorpusPrograms; ++i) {
    w.inputs.push_back(pooled(kCorpusCampaign, i, kCorpusShapes));
  }
  for (std::size_t i : kReproIndices) {
    w.inputs.push_back(pooled(kReproCampaign, i, kReproShapes));
  }
  // Fisher-Yates: the order decides which program of a shape builds its
  // analyses and how the two workers' deques fill.
  parcm::Rng rng(mix(seed));
  for (std::size_t i = w.inputs.size() - 1; i > 0; --i) {
    std::swap(w.inputs[i], w.inputs[rng.below(i + 1)]);
  }
  w.tail_percentile =
      tail_for(kCorpusShapes + std::size(kReproIndices));
  return w;
}

Workload large(std::uint64_t seed) {
  Workload w;
  w.name = "large";
  w.jobs = 1;
  const std::size_t span = kLargeMaxSegments - kLargeMinSegments;
  for (std::size_t i = 0; i < kLargePrograms; ++i) {
    // Sizes are a fixed ladder; only the assignments depend on the seed, so
    // the biggest program (which sets peak RSS) has the same size each run.
    std::size_t segments =
        kLargeMinSegments + (i * span + (kLargePrograms - 1) / 2) /
                                (kLargePrograms - 1);
    Input in;
    in.id = "large" + std::to_string(seed) + "#" + std::to_string(i);
    in.source = large_program(mix(seed ^ mix(i)), segments);
    in.path_seed = mix(seed ^ mix(i) ^ 0x1A46Eull);
    w.inputs.push_back(std::move(in));
  }
  w.tail_percentile = tail_for(w.inputs.size());
  return w;
}

Workload validate() {
  Workload w;
  w.name = "validate";
  w.jobs = 0;
  parcm::RandomProgramOptions gen = parcm::verify::default_fuzz_gen();
  for (std::size_t i = 0; i < kValidatePrograms; ++i) {
    Input in;
    in.id = "fuzz" + std::to_string(kValidateCampaign) + "#" +
            std::to_string(i);
    in.source = parcm::lang::to_source(
        parcm::verify::fuzz_program(kValidateCampaign, i, gen));
    in.path_seed = mix(kValidateCampaign ^ mix(i));
    w.inputs.push_back(std::move(in));
  }
  w.tail_percentile = tail_for(w.inputs.size());
  return w;
}

}  // namespace

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "corpus") return corpus(seed);
  if (name == "large") return large(seed);
  if (name == "validate") return validate();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace e2e
