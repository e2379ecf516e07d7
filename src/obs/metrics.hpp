// Structured metrics for the solver/motion pipeline.
//
// A Registry holds named counters (monotone uint64), gauges (last-written
// double), wall-clock timers (call count + accumulated nanoseconds) and
// latency histograms (fixed log-2 bucketing, mergeable, p50/p90/p99
// summaries). The library reports into the installed global registry
// through the PARCM_OBS_* macros below; hot loops accumulate locally and
// report once per call.
//
// Counters are addressed by slot: a process-wide, append-only table interns
// every counter name once, and each Registry keeps its counter values in a
// flat vector indexed by slot. PARCM_OBS_COUNT resolves its name on first
// use and then costs a vector add under the registry's mutex. Its name must
// be a compile-time constant, so the number of counter names — and with it
// every registry — is bounded by the source, whatever the corpus.
//
// Instrumentation call sites compile to nothing when PARCM_OBS_ENABLED is 0
// (set library-wide by the PARCM_OBS=OFF CMake configuration); the classes
// themselves stay available so pipeline/CLI code that *consumes* a registry
// still links — it just observes an empty one.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef PARCM_OBS_ENABLED
#define PARCM_OBS_ENABLED 1
#endif

namespace parcm::obs {

class JsonWriter;

struct TimerStat {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
  bool operator==(const TimerStat&) const = default;
};

// Fixed log-2-bucketed distribution of uint64 samples (latencies in ns,
// allocation counts, ...). Bucket 0 holds exact zeros; bucket b >= 1 holds
// [2^(b-1), 2^b). Recording is O(1) and allocation-free, merging sums the
// bucket arrays exactly — a histogram merged from per-worker shards equals
// the histogram of the concatenated samples, so batch-driver aggregation
// loses nothing. Percentiles interpolate linearly inside the bucket that
// holds the target rank, clamped to the observed [min, max].
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 65;

  void record(std::uint64_t value) {
    ++buckets_[bucket_of(value)];
    ++count_;
    sum_ += value;
    min_ = value < min_ ? value : min_;
    max_ = value > max_ ? value : max_;
  }

  void merge_from(const Histogram& other) {
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = other.min_ < min_ ? other.min_ : min_;
    max_ = other.max_ > max_ ? other.max_ : max_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  const std::array<std::uint64_t, kNumBuckets>& buckets() const {
    return buckets_;
  }

  // p in [0, 100]. Deterministic: depends only on the recorded multiset.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p90() const { return percentile(90.0); }
  double p99() const { return percentile(99.0); }

  bool operator==(const Histogram&) const = default;

  static std::size_t bucket_of(std::uint64_t value) {
    return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
  }

  // Rebuilds a histogram from its serialized sparse buckets plus summary
  // fields (the `parcm-metrics-v1` on-disk form). Inverse of the JSON
  // writer up to bucket resolution: a from_serialized histogram merges and
  // ranks exactly like the original.
  static Histogram from_serialized(
      const std::vector<std::pair<std::size_t, std::uint64_t>>& buckets,
      std::uint64_t sum, std::uint64_t min, std::uint64_t max);

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

// An interned counter name: its slot in every Registry.
struct CounterKey {
  std::uint32_t slot = 0;
  // The interned name; it lives as long as the process.
  const std::string* name = nullptr;
};

// The key of `name`, interned on first use. Thread-safe; the table only
// grows, so a key stays valid for the rest of the process.
CounterKey intern_counter(std::string_view name);

// A counter name as a template argument. Only a constant expression can
// initialize one, so a name built at run time (per program, per term) does
// not compile where the counter macro expects a CounterName.
template <std::size_t N>
struct CounterName {
  char chars[N];
  constexpr CounterName(const char (&name)[N]) {
    for (std::size_t i = 0; i < N; ++i) chars[i] = name[i];
  }
  constexpr std::string_view view() const { return {chars, N - 1}; }
};

// The key of `Name`, interned on the first call and cached after it.
template <CounterName Name>
const CounterKey& counter_key() {
  static const CounterKey key = intern_counter(Name.view());
  return key;
}

// (name, delta) pairs sorted by name, as Registry::counter_deltas reports
// them; the names are interned.
using CounterDeltas = std::vector<std::pair<std::string_view, std::uint64_t>>;

class Registry {
 public:
  void add_counter(const CounterKey& key, std::uint64_t delta = 1);
  // Interns `name` first: for names that only exist at run time, such as
  // the counters of a report being re-emitted.
  void add_counter(std::string_view name, std::uint64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  void add_timer_ns(std::string_view name, std::uint64_t ns);
  void record_hist(std::string_view name, std::uint64_t value);
  // Shard re-emission: fold an already-aggregated histogram/timer into the
  // named entry (exact bucket sums, same as merge_from but per-metric).
  // Used when a phase measured into per-worker registries and wants the
  // result visible in the ambient one.
  void merge_hist(std::string_view name, const Histogram& shard);
  void add_timer_stat(std::string_view name, const TimerStat& stat);

  // Snapshots, lexicographically ordered by name (stable across runs).
  // counters() lists every counter this registry was asked to add to, also
  // with a zero delta.
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, TimerStat> timers() const;
  std::map<std::string, Histogram> histograms() const;

  // Single counter value; 0 when absent.
  std::uint64_t counter(std::string_view name) const;
  // Single histogram snapshot; empty (count 0) when absent.
  Histogram histogram(std::string_view name) const;

  // Per-region counter attribution without names or maps: copy the value
  // of every slot into `out` (reusing its capacity) before the region, and
  // afterwards append to `deltas` each counter whose value differs from
  // `before` (slots past its end count from 0), sorted by name. Assumes the
  // registry was not cleared in between.
  void counter_values(std::vector<std::uint64_t>* out) const;
  void counter_deltas(std::span<const std::uint64_t> before,
                      CounterDeltas* deltas) const;

  // Adds every metric of `other` into this registry: counters, timers and
  // histograms sum, gauges take `other`'s value. The batch driver uses this
  // to drain per-worker registries into one aggregate; histogram merges are
  // exact, not approximated.
  void merge_from(const Registry& other);

  void clear();
  bool empty() const;

  // Aligned human-readable table of every metric.
  std::string to_string() const;

  // {"schema":"parcm-metrics-v1","counters":{...},"gauges":{...},
  // "timers":{"name":{"count":..,"total_ms":..}},"histograms":{"name":
  // {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
  // "p99":..}}} — keys sorted, suitable for machine diffing.
  void write_json(JsonWriter& w) const;
  std::string to_json(bool pretty = false) const;

 private:
  // The mutex also guards the counter slots: every thread without a
  // set_thread_registry override shares the process-global registry.
  mutable std::mutex mu_;
  // Indexed by CounterKey::slot; a null name marks a slot this registry was
  // never asked to add to.
  std::vector<std::uint64_t> counter_values_;
  std::vector<const std::string*> counter_names_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, TimerStat, std::less<>> timers_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// The registry the macros report into: the calling thread's override when
// one is installed (set_thread_registry), else the process-global one.
Registry& registry();

// Injects `r` as the global registry (nullptr restores the default);
// returns the previously installed one. Used by tests and by callers that
// want an isolated measurement window.
Registry* set_registry(Registry* r);

// Installs `r` as this thread's registry override (nullptr removes it);
// returns the previous override. Worker threads of the batch driver each
// install their own registry so counters accumulate contention-free and can
// be merged deterministically on drain; registry() keeps resolving to the
// process-global instance on threads without an override.
Registry* set_thread_registry(Registry* r);

namespace detail {
// Implemented in trace.cpp: forwards to the global TraceSink when tracing
// is enabled. Returns a span handle, -1 when disabled.
int trace_begin(std::string_view name);
void trace_end(int span);
}  // namespace detail

// RAII wall-clock timer: accumulates into registry().timers()[name] and
// opens a span in the global trace sink while alive.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name)
      : name_(name),
        span_(detail::trace_begin(name)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    registry().add_timer_ns(name_, static_cast<std::uint64_t>(ns));
    detail::trace_end(span_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string name_;
  int span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace parcm::obs

#define PARCM_OBS_CONCAT_IMPL(a, b) a##b
#define PARCM_OBS_CONCAT(a, b) PARCM_OBS_CONCAT_IMPL(a, b)

namespace parcm::obs::detail {
// Never defined: the OFF-mode macros name it only inside sizeof.
template <class... Args>
int unevaluated(const Args&...);
}  // namespace parcm::obs::detail

// A compiled-out instrumentation call: its arguments are type-checked and
// count as used, so variables that only feed instrumentation raise no
// warnings in the PARCM_OBS=OFF build, but nothing is evaluated.
#define PARCM_OBS_UNEVALUATED(...) \
  ((void)sizeof(::parcm::obs::detail::unevaluated(__VA_ARGS__)))

#if PARCM_OBS_ENABLED
// `name` must be a string literal (see CounterName).
#define PARCM_OBS_COUNT(name, delta)                                  \
  ::parcm::obs::registry().add_counter(::parcm::obs::counter_key<name>(), \
                                       (delta))
#define PARCM_OBS_GAUGE(name, value) \
  ::parcm::obs::registry().set_gauge((name), (value))
#define PARCM_OBS_TIMER(name) \
  ::parcm::obs::ScopedTimer PARCM_OBS_CONCAT(parcm_obs_timer_, __LINE__)(name)
#define PARCM_OBS_HIST(name, value) \
  ::parcm::obs::registry().record_hist((name), (value))
#else
#define PARCM_OBS_COUNT(name, delta) \
  PARCM_OBS_UNEVALUATED(::parcm::obs::counter_key<name>(), (delta))
#define PARCM_OBS_GAUGE(name, value) PARCM_OBS_UNEVALUATED((name), (value))
#define PARCM_OBS_TIMER(name) PARCM_OBS_UNEVALUATED(name)
#define PARCM_OBS_HIST(name, value) PARCM_OBS_UNEVALUATED((name), (value))
#endif
