// In-memory span recorder for the traced run.
//
// wraps.cpp intercepts the library's layer entry points at link time and
// opens one Scope around each call. Spans live in per-thread buffers owned
// by the recorder (never in the library's own obs tracer, which is one of
// the layers being measured) and are written out as a Chrome trace_event
// file when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Layer : std::uint8_t {
  kRunBatch,     // parcm::driver::run_batch
  kCompile,      // parcm::lang::compile
  kPipeline,     // parcm::Pipeline::run
  kPcm,          // parcm::parallel_code_motion
  kSafety,       // parcm::compute_safety
  kConstprop,    // parcm::propagate_constants
  kSinking,      // parcm::sink_partially_dead_assignments
  kLiveness,     // parcm::compute_parallel_liveness
  kDce,          // parcm::eliminate_dead_assignments
  kValidate,     // parcm::validate_or_throw
  kPrint,        // parcm::to_text
  kExact,        // parcm::verify::differential_check
  kVm,           // parcm::verify::vm_differential_check
  kVmLower,      // parcm::vm::lower_to_bytecode
  kVmRun,        // parcm::vm::SeededRunner::run
};
inline constexpr std::size_t kNumLayers = 15;

// The wrapped call, as it appears in the Chrome trace.
const char* layer_call(Layer layer);

// Facts the wrappers read off the values their calls return (the cache and
// registry facts of a validate round come from the harness itself).
enum class Count : std::uint8_t {
  kNodesIn,          // Pipeline::run input nodes
  kNodesOut,         // Pipeline::run output nodes
  kPcmActions,       // insertions + replacements
  kSinkingSunk,      // assignments sunk
  kDceEliminated,    // assignments eliminated
  kConstpropFolds,   // operands + right-hand sides folded
  kExactDecided,     // differential_check verdicts decided exactly
  kInconclusive,     // inconclusive verdicts of either oracle
  kBehaviours,       // original behaviour-set sizes in the verdicts
  kVmInstrs,         // instructions the seeded VM runs executed
  kPrograms,         // run_batch: programs in the batch
  kWorkers,          // run_batch: worker threads
  kProgramWallNs,    // run_batch: sum of per-program wall clock
  kSteals,           // run_batch: work-stealing deque steals
  kAllocs,           // run_batch: operator-new calls
  kCacheLookups,     // analysis-cache lookups of a batch or validate round
  kCacheBuilds,      // analyses built, likewise
  kRegistryNames,    // counter names in the batch's or round's registry
};
inline constexpr std::size_t kNumCounts = 18;

struct Span {
  Layer layer;
  std::int32_t parent;    // index of the enclosing span on the same thread
  std::uint64_t request;  // the program the span worked on
  std::int64_t start_ns;  // steady clock
  std::int64_t end_ns;
};

struct ThreadSpans {
  std::string name;  // "harness", "worker-1", ...
  bool is_main = false;
  std::vector<Span> spans;
};

// Drops everything recorded so far and starts recording.
void tracing_start();
void tracing_stop();
bool tracing_enabled();

// Opens a span on the calling thread for the lifetime of the object. A
// kCompile span at the bottom of a thread's stack starts a new request.
class Scope {
 public:
  explicit Scope(Layer layer);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

void count(Count c, std::uint64_t n);

struct Recording {
  std::vector<ThreadSpans> threads;
  std::array<std::uint64_t, kNumCounts> counts{};
};
// Everything recorded since tracing_start(); call after tracing_stop().
Recording recording();

// Self time (span minus its direct children) and total time per layer, in
// ms. Spans on batch worker threads count 1/W each when W workers ran, so
// each layer's time is its share of the wall clock; driver::run_batch keeps
// what its workers' top-level spans do not cover. The self times then add
// up to the harness thread's time inside top-level spans.
struct LayerTimes {
  std::array<double, kNumLayers> self_ms{};
  std::array<double, kNumLayers> total_ms{};
  double covered_ms = 0;  // harness-thread time inside top-level spans
};
LayerTimes account(const Recording& rec);

// Chrome trace_event JSON ("X" events plus thread names) of the spans that
// started before `until_ns` (steady clock). Returns false when the file
// cannot be written.
bool write_chrome_trace(const Recording& rec, std::int64_t until_ns,
                        const std::string& path);

// The steady clock in the spans' unit.
std::int64_t now_ns();

}  // namespace e2e
