// Optimization remarks: structured provenance for every code-motion
// decision.
//
// Each analysis and motion pass emits typed remarks — Inserted, Replaced,
// Blocked, Skipped, Degraded — carrying the node id, the term, the pass
// name and a machine-readable *reason chain* (e.g. earliest ∧ down-safe, or
// "per-interleaving witness differs (P3)"). The stream answers "why was
// `a+b` inserted at node 7 and not hoisted out of this parallel
// component?", the question the paper's three pitfalls (P1 optimality, P2
// recursive assignments, P3 up-/down-safety) all silently hinge on.
//
// Like the metrics Registry, the sink is process-global and injectable
// (set_remark_sink) so tests and the parcm_explain CLI capture an isolated
// stream. Emission call sites use the PARCM_OBS_REMARK* macros, which
// compile to nothing when PARCM_OBS_ENABLED is 0 and cost one branch when
// the sink is disabled; the classes themselves stay available either way so
// consumers keep linking.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/alloc.hpp"    // ForeignAllocSink, thread_alloc_count
#include "obs/metrics.hpp"  // PARCM_OBS_ENABLED and the macro helpers
#include "obs/trace.hpp"    // TraceThreadScope

namespace parcm::obs {

class JsonWriter;

enum class RemarkKind : std::uint8_t {
  kInserted,  // code added (temp initialization, copy)
  kReplaced,  // node rewritten (computation -> temp read, assignment -> skip)
  kBlocked,   // a safety rule prevented or forced a decision
  kSkipped,   // pass considered a candidate and declined
  kDegraded,  // fallback or partial application (sunk anchor, private temp)
};

// Stable kebab-case id, e.g. "inserted" (used by JSON and CLI filters).
const char* remark_kind_name(RemarkKind kind);

// One step of a reason chain. Ids are stable machine-readable slugs;
// labels are the human sentences printed by reports and parcm_explain.
enum class RemarkReason : std::uint8_t {
  kComputes,        // node computes the term
  kUpSafe,          // up-safe at the node (availability)
  kDownSafe,        // down-safe at the node (anticipability)
  kEarliest,        // placement frontier of busy code motion
  kLatest,          // delay frontier of lazy code motion
  kIsolated,        // LCM isolation: temp would serve only its own insertion
  kAnchorSunk,      // anchor moved to its must-use frontier
  kValueDies,       // every continuation kills the value before a use
  kEdgePlacement,   // start/ParEnd anchors place on each outgoing edge
  kBottleneck,      // P1: would move work into a transparent component
  kRecursiveSplit,  // P2: implicit decomposition of a recursive assignment
  kWitnessDiffers,  // P3: per-interleaving witness differs (summary Const_ff)
  kExported,        // up-safe_par summary Const_tt: value crosses the join
  kOperandKilled,   // computes the term but assigns one of its own operands
  kPrivatized,      // component-private temporary (sibling interference)
  kBridgeCopy,      // zero-cost copy wiring a private temp across a boundary
  kBarrierPhase,    // anticipability cut at a synchronization barrier
  kDeadAssignment,  // no interleaving reads the value before overwrite
  kPartiallyDead,   // dead on some paths: sunk to its use frontier
  kContested,       // potentially-parallel access blocks the reordering
  kUnprofitable,    // transformation would churn without improving a path
};

const char* remark_reason_id(RemarkReason r);     // "interleaving-witness-p3"
const char* remark_reason_label(RemarkReason r);  // the human sentence
// "P1", "P2", "P3" for the paper's pitfalls, nullptr otherwise.
const char* remark_reason_pitfall(RemarkReason r);

// A reason chain is short (at most four steps today); fixed inline storage
// keeps remark emission allocation-free on the hot replacement path.
// Iteration, indexing and std::find work as on a vector.
class ReasonChain {
 public:
  ReasonChain() = default;
  ReasonChain(std::initializer_list<RemarkReason> rs) {
    for (RemarkReason r : rs) push_back(r);
  }
  void push_back(RemarkReason r) {
    if (size_ < kCapacity) data_[size_++] = r;
  }
  const RemarkReason* begin() const { return data_; }
  const RemarkReason* end() const { return data_ + size_; }
  RemarkReason operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool operator==(const ReasonChain& o) const {
    if (size_ != o.size_) return false;
    for (std::uint8_t i = 0; i < size_; ++i) {
      if (data_[i] != o.data_[i]) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kCapacity = 6;
  RemarkReason data_[kCapacity] = {};
  std::uint8_t size_ = 0;
};

struct Remark {
  RemarkKind kind = RemarkKind::kSkipped;
  std::string pass;             // emitting pass ("pcm", "dce", ...)
  std::int64_t node = -1;       // node id in the pass's graph; -1 = none
  std::int64_t term_index = -1; // TermId index; -1 = not term-related
  std::string term;             // rendered term ("a + b"); may be empty
  std::string message;          // one-line human statement of the decision
  ReasonChain reasons;          // machine-readable reason chain
  std::string detail;           // free-form context (frontier nodes, temps)

  bool operator==(const Remark&) const = default;
};

// "n12 [inserted] pcm `a + b`: message (earliest ∧ down-safe) — detail".
std::string remark_to_string(const Remark& r);

class RemarkSink {
 public:
  // Disabled sinks drop emissions at the macro's single branch; the pass
  // scope is still tracked so a later enable sees correct attribution.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  void emit(Remark r);

  // Moves a whole batch in under one lock. Hot loops that emit one remark
  // per node use this to keep the per-remark cost to the string copies
  // alone. The batch is emptied but keeps its capacity, so a caller-owned
  // buffer amortizes to one allocation across many batches.
  void emit_batch(std::vector<Remark>& batch);

  // Current pass name stamped on remarks emitted without one (see
  // RemarkPassScope). Returns the previous name.
  std::string set_pass(std::string name);
  std::string pass() const;

  void clear();
  bool empty() const;
  std::size_t size() const;
  std::vector<Remark> snapshot() const;

  // Emission epoch: a process-unique value drawn at construction and again
  // by every clear(). Consumers that emit derived remarks at most once per
  // content — the analysis cache's acquisition remarks — key their dedup on
  // this, so installing a fresh sink or clearing the current one starts a
  // new epoch and re-emits.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // One remark_to_string line per remark, in emission order.
  std::string to_string() const;

  // {"schema":"parcm-remarks-v1","remarks":[{kind,pass,node,term_index,
  // term,message,reasons:[slug...],pitfalls:[...],detail}, ...]} — stable
  // field order, suitable for machine diffing.
  void write_json(JsonWriter& w) const;
  std::string to_json(bool pretty = false) const;

 private:
  static std::uint64_t next_epoch();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_{next_epoch()};
  mutable std::mutex mu_;
  std::string pass_;
  std::vector<Remark> remarks_;
};

// The sink the macros report into: the calling thread's override when one
// is installed (set_thread_remark_sink), else the process-global one.
RemarkSink& remarks();

// Injects `s` as the global sink (nullptr restores the default); returns
// the previously installed one. Mirrors obs::set_registry.
RemarkSink* set_remark_sink(RemarkSink* s);

// Installs `s` as this thread's sink override (nullptr removes it); returns
// the previous override. Batch-driver workers and parallel fuzz campaigns
// each capture their own remark stream this way without fighting over the
// process-global sink. Mirrors obs::set_thread_registry.
RemarkSink* set_thread_remark_sink(RemarkSink* s);

// The effective obs destinations of the calling thread — registry, remark
// sink, and trace track — for hand-off to helper threads that should
// report into the same place. A helper thread installs the bindings for
// its lifetime via ThreadBindingsScope — the std::async safety solves use
// this so their counters stay attributed to the spawning worker, not to
// whichever global sinks the helper thread would otherwise see.
struct ThreadBindings {
  Registry* registry = nullptr;
  RemarkSink* remarks = nullptr;
  // Spawning thread's trace track ("" when it is unbound or tracing is
  // off); the helper records onto "<trace_track>/async".
  std::string trace_track;
  // Spawning thread's foreign-allocation sink (nullptr when none): the
  // helper's allocation delta over the scope's lifetime is flushed here, so
  // per-job allocation accounting covers helper-thread work too.
  ForeignAllocSink* alloc_sink = nullptr;
};
ThreadBindings current_thread_bindings();

class ThreadBindingsScope {
 public:
  explicit ThreadBindingsScope(const ThreadBindings& b)
      : prev_registry_(set_thread_registry(b.registry)),
        prev_sink_(set_thread_remark_sink(b.remarks)),
        alloc_sink_(b.alloc_sink),
        start_allocs_(thread_alloc_count()),
        start_bytes_(thread_alloc_bytes()) {
    if (!b.trace_track.empty()) {
      trace_scope_.emplace(b.trace_track + "/async");
    }
  }
  ~ThreadBindingsScope() {
    trace_scope_.reset();
    if (alloc_sink_ != nullptr) {
      alloc_sink_->add(thread_alloc_count() - start_allocs_,
                       thread_alloc_bytes() - start_bytes_);
    }
    set_thread_remark_sink(prev_sink_);
    set_thread_registry(prev_registry_);
  }
  ThreadBindingsScope(const ThreadBindingsScope&) = delete;
  ThreadBindingsScope& operator=(const ThreadBindingsScope&) = delete;

 private:
  Registry* prev_registry_;
  RemarkSink* prev_sink_;
  ForeignAllocSink* alloc_sink_;
  std::uint64_t start_allocs_;
  std::uint64_t start_bytes_;
  std::optional<TraceThreadScope> trace_scope_;
};

// RAII pass-name scope: remarks emitted while alive and not already naming
// a pass are attributed to `name`; the previous name is restored on exit.
class RemarkPassScope {
 public:
  explicit RemarkPassScope(std::string_view name)
      : prev_(remarks().set_pass(std::string(name))) {}
  ~RemarkPassScope() { remarks().set_pass(std::move(prev_)); }
  RemarkPassScope(const RemarkPassScope&) = delete;
  RemarkPassScope& operator=(const RemarkPassScope&) = delete;

 private:
  std::string prev_;
};

}  // namespace parcm::obs

#if PARCM_OBS_ENABLED
// True when remark recording is compiled in AND the sink is enabled; guards
// loops that only exist to build remarks.
#define PARCM_OBS_REMARKS_ON() (::parcm::obs::remarks().enabled())
// Emits a Remark expression; the argument is evaluated only when the sink
// is enabled, so building messages costs nothing on the disabled path.
#define PARCM_OBS_REMARK(...)                                        \
  do {                                                               \
    ::parcm::obs::RemarkSink& parcm_obs_sink = ::parcm::obs::remarks(); \
    if (parcm_obs_sink.enabled()) parcm_obs_sink.emit(__VA_ARGS__);  \
  } while (0)
// Names the pass for every remark emitted in the current scope.
#define PARCM_OBS_REMARK_PASS(name)                 \
  ::parcm::obs::RemarkPassScope PARCM_OBS_CONCAT(   \
      parcm_obs_remark_pass_, __LINE__)(name)
#else
#define PARCM_OBS_REMARKS_ON() (false)
#define PARCM_OBS_REMARK(...) PARCM_OBS_UNEVALUATED(__VA_ARGS__)
#define PARCM_OBS_REMARK_PASS(name) PARCM_OBS_UNEVALUATED(name)
#endif
