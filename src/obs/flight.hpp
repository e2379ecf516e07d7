// Flight recorder: a per-thread lock-free ring buffer of the most recent
// structured events, kept for post-hoc forensics.
//
// Where the trace sink records *everything* (and drops when full), the
// flight recorder deliberately forgets: each thread writes fixed-size
// events into a bounded ring that wraps, so at any moment the recorder
// holds the last N things each thread did — pass starts/ends, solver
// seeds, cache probes, RNG stream positions, program ids — in O(threads ×
// capacity) memory no matter how long the process runs. When a program
// times out, throws, or the differential oracle diverges, the failure path
// snapshots the rings into the forensic bundle; in steady state the
// recorder costs one relaxed atomic load per call site when disabled and a
// handful of relaxed stores when enabled.
//
// Concurrency design: each ring has exactly one writer (the thread that
// auto-bound it on its first record); readers may snapshot from any thread
// at any time — including a failure path that fires while other workers
// are still recording — so every event slot is a seqlock of plain atomics:
// the writer bumps the slot's sequence to odd, stores the payload fields
// relaxed, then publishes the even sequence with release; a reader that
// observes an odd or changed sequence discards the slot instead of
// returning a torn event. No mutex sits on the record path; binding a new
// thread's ring and snapshotting take the registry mutex. clear() bumps a
// generation so stale thread bindings die instead of dangling (the same
// guard the trace sink uses).
//
// Compiled out with the rest of the observability layer: the
// PARCM_OBS_FLIGHT macro is a no-op when PARCM_OBS_ENABLED is 0; the
// classes stay linked so bundle consumers build either way.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"  // PARCM_OBS_ENABLED, PARCM_OBS_UNEVALUATED

namespace parcm::obs {

class JsonWriter;

enum class FlightKind : std::uint8_t {
  kPassStart,     // a: nodes before          label: pass name
  kPassEnd,       // a: wall ns, b: actions   label: pass name
  kSolverSeed,    // a: seeded entries, b: region count
  kCacheProbe,    // a: structural hash, b: 1 hit / 0 miss
  kRngStream,     // a: seed/stream position, b: index in stream
  kProgramBegin,  // a: manifest index         label: program id
  kProgramEnd,    // a: manifest index, b: status ordinal
  kOracleVerdict, // a: original behaviours, b: transformed behaviours
  kNote,          // free-form breadcrumb
};

// Stable kebab-case id ("pass-start", ...), used by bundle JSON.
const char* flight_kind_name(FlightKind k);

struct FlightEvent {
  FlightKind kind = FlightKind::kNote;
  std::string track;      // owning ring's track name
  std::uint64_t seq = 0;  // per-ring monotone event number
  std::uint64_t t_ns = 0; // relative to the recorder's epoch
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string label;      // truncated to kLabelBytes at record time
};

namespace detail {
class FlightRing;
struct FlightThreadBinding {
  const void* recorder = nullptr;
  FlightRing* ring = nullptr;
  std::uint64_t generation = 0;
};
}  // namespace detail

class FlightRecorder {
 public:
  // Payload label capacity per event; longer labels truncate. Big enough
  // for every pass/status name in the tree ("differential-validate" is the
  // longest customer at 21 bytes).
  static constexpr std::size_t kLabelBytes = 24;

  FlightRecorder();
  ~FlightRecorder();

  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Ring capacity in events for rings bound afterwards (default 256).
  void set_capacity(std::size_t events);

  // Records into the calling thread's ring, auto-binding one on first use
  // (named "flight-<n>" in bind order, or after the thread's trace track
  // when it has one). No-op while disabled.
  void record(FlightKind kind, std::string_view label = {},
              std::uint64_t a = 0, std::uint64_t b = 0);

  // Deterministically ordered copy of every ring's surviving events,
  // oldest first per ring, rings in bind order. Safe to call from a
  // failure path while other threads keep recording: torn slots are
  // skipped, not returned.
  std::vector<FlightEvent> snapshot() const;
  // Only the calling thread's ring (the usual forensic-bundle view: the
  // history of the worker that failed). Empty when the thread never
  // recorded.
  std::vector<FlightEvent> snapshot_current_thread() const;

  // Total events ever recorded (survivors + overwritten).
  std::uint64_t total_recorded() const;

  // Drops every ring and restarts the epoch; stale thread bindings are
  // invalidated by generation.
  void clear();

  // ["events" array writer for bundles]: {kind, track, seq, t_ns, a, b,
  // label} per event.
  static void write_events_json(const std::vector<FlightEvent>& events,
                                JsonWriter& w);

 private:
  detail::FlightRing* current_ring();
  std::uint64_t now_ns() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{1};
  // Steady-clock ns at construction/clear; atomic because clear() restarts
  // the epoch while other threads may be stamping events.
  std::atomic<std::uint64_t> epoch_ns_{0};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<detail::FlightRing>> rings_;
  std::size_t capacity_;
};

// The process-global recorder the macro records into.
FlightRecorder& flight();

}  // namespace parcm::obs

#if PARCM_OBS_ENABLED
#define PARCM_OBS_FLIGHT(kind, label, a, b)                       \
  do {                                                            \
    ::parcm::obs::FlightRecorder& parcm_obs_fr =                  \
        ::parcm::obs::flight();                                   \
    if (parcm_obs_fr.enabled()) {                                 \
      parcm_obs_fr.record((kind), (label), (a), (b));             \
    }                                                             \
  } while (0)
#else
#define PARCM_OBS_FLIGHT(kind, label, a, b) \
  PARCM_OBS_UNEVALUATED((kind), (label), (a), (b))
#endif
