// Span-style tracing: nested begin/end events over one wall clock, safe to
// feed from many threads at once.
//
// The sink is disabled by default and costs a single branch per
// ScopedTimer; when enabled (CLI --trace-json, tests) every PARCM_OBS_TIMER
// scope records a span. Each thread writes into its own fixed-capacity
// SpanBuffer — thread-local and lock-free on the hot path — registered
// with the sink under a mutex at bind time:
//
//   owner     the thread that called set_enabled(true) self-binds the
//             "main" track lazily on its first span.
//   workers   bind an explicit track ("worker-3") for their lifetime with
//             a TraceThreadScope; the batch driver does this per worker.
//
// Lifecycle (enforced with asserts): enable the sink *before* spawning
// worker threads, join them *before* clear(). A buffer that fills up drops
// further spans and counts them (dropped()).
//
// Spans merge deterministically by (track, start_ns, buffer, index) and
// export either as an indented human-readable tree or as a multi-track
// Chrome trace_event file ("parcm-trace-v1", one named track per thread),
// loadable in chrome://tracing and https://ui.perfetto.dev.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace parcm::obs {

class JsonWriter;
class SpanBuffer;
class TraceSink;

struct TraceSpan {
  std::string name;
  std::string track;           // filled in merged snapshots ("main", ...)
  std::uint64_t start_ns = 0;  // relative to the sink's epoch
  std::uint64_t dur_ns = 0;
  int depth = 0;               // nesting depth within its own track
};

namespace detail {
// The calling thread's current buffer binding. Internal: managed by
// TraceThreadScope and the owner's lazy self-bind; a generation mismatch
// (the sink was cleared) invalidates the binding without dangling.
struct TraceThreadBinding {
  const TraceSink* sink = nullptr;
  SpanBuffer* buffer = nullptr;
  std::uint64_t generation = 0;
};
}  // namespace detail

class TraceSink {
 public:
  TraceSink();
  ~TraceSink();

  // Enabling adopts the calling thread as the sink's owner (it self-binds
  // the "main" track on its first span). Must happen before worker threads
  // bind span buffers — asserted, because an owner switch with in-flight
  // writers would race.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Per-thread buffer capacity in spans for buffers bound afterwards.
  void set_span_capacity(std::size_t spans);

  // Opens a span on the calling thread's buffer; returns its handle, or -1
  // when the thread is unbound (and not the owner) or the buffer is full.
  // Spans close LIFO per thread — the RAII ScopedTimer guarantees this.
  int begin(std::string_view name);
  void end(int span);

  // Drops every buffer and restarts the epoch. All TraceThreadScopes must
  // have unwound first (asserted); stale thread bindings from before the
  // clear are detected by generation and silently dropped.
  void clear();

  // Deterministic merged snapshot: spans ordered by (track, start_ns,
  // buffer registration, index), each stamped with its track name.
  std::vector<TraceSpan> spans() const;
  // Sorted unique track names with at least one buffer.
  std::vector<std::string> tracks() const;
  // Spans dropped across all buffers (capacity overflow or unbound ends).
  std::uint64_t dropped() const;

  // Indented tree, one line per span with its wall time; one section per
  // track when more than one thread contributed.
  std::string tree() const;

  // Multi-track Chrome trace_event JSON: thread_name metadata per track
  // followed by "X" duration events, tid = track index in sorted order.
  // {"schema":"parcm-trace-v1","traceEvents":[...]}.
  void write_chrome_json(JsonWriter& w) const;
  std::string chrome_json(bool pretty = true) const;

 private:
  friend class TraceThreadScope;

  std::uint64_t now_ns() const;
  // Registers (or revives an unbound buffer of) `track`; mu_ held.
  SpanBuffer* acquire_buffer_locked(std::string_view track);
  // The calling thread's valid buffer, lazily self-binding the owner.
  SpanBuffer* current_buffer();
  detail::TraceThreadBinding bind_current_thread(std::string_view track);
  void unbind_current_thread(const detail::TraceThreadBinding& previous);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{1};
  std::atomic<std::thread::id> owner_{};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::size_t scoped_bindings_ = 0;  // live TraceThreadScopes
  std::size_t span_capacity_;
};

// RAII track binding against the process-global sink: registers a
// fixed-capacity span buffer for the calling thread under `track` (no-op
// while tracing is disabled or `track` is empty) and restores the previous
// binding on destruction. Worker threads must construct these *after* the
// sink was enabled and destroy them before clear().
class TraceThreadScope {
 public:
  explicit TraceThreadScope(std::string_view track);
  ~TraceThreadScope();
  TraceThreadScope(const TraceThreadScope&) = delete;
  TraceThreadScope& operator=(const TraceThreadScope&) = delete;

  bool active() const { return sink_ != nullptr; }

 private:
  TraceSink* sink_ = nullptr;
  detail::TraceThreadBinding previous_{};
};

// The track the calling thread currently records into on the global sink
// ("" when unbound or tracing is disabled). The flight recorder names a
// thread's ring after it, so forensic events line up with trace spans.
std::string current_trace_track();

// The process-global sink fed by ScopedTimer.
TraceSink& trace();

}  // namespace parcm::obs
