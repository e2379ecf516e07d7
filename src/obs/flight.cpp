#include "obs/flight.hpp"

#include <algorithm>
#include <cstring>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace parcm::obs {

namespace detail {

// One thread's event ring. Single writer (the bound thread); any thread may
// read concurrently via the per-slot seqlock, so every field a reader
// touches is an atomic — no plain loads race with the writer. Release
// payload stores and acquire payload loads order the payload against the
// sequence without fences, which ThreadSanitizer does not model (Boehm,
// "Can seqlocks get along with programming language memory models?",
// 2012).
class FlightRing {
 public:
  static constexpr std::size_t kLabelWords =
      FlightRecorder::kLabelBytes / sizeof(std::uint64_t);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // odd = write in progress
    std::atomic<std::uint64_t> event_seq{0};
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint8_t> label_len{0};
    std::array<std::atomic<std::uint64_t>, kLabelWords> label{};
  };

  FlightRing(std::string track, std::size_t capacity, std::size_t bind_seq)
      : track_(std::move(track)),
        slots_(capacity),
        bind_seq_(bind_seq) {}

  void record(FlightKind kind, std::string_view label, std::uint64_t a,
              std::uint64_t b, std::uint64_t t_ns) {
    const std::uint64_t event = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[event % slots_.size()];
    const std::uint64_t s0 = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(s0 + 1, std::memory_order_relaxed);  // odd: in progress
    // Release payload stores: a reader that acquires any of them also sees
    // the odd mark above when it rechecks seq.
    slot.event_seq.store(event, std::memory_order_release);
    slot.t_ns.store(t_ns, std::memory_order_release);
    slot.a.store(a, std::memory_order_release);
    slot.b.store(b, std::memory_order_release);
    slot.kind.store(static_cast<std::uint8_t>(kind),
                    std::memory_order_release);
    const std::size_t len =
        std::min<std::size_t>(label.size(), FlightRecorder::kLabelBytes);
    slot.label_len.store(static_cast<std::uint8_t>(len),
                         std::memory_order_release);
    std::array<std::uint64_t, kLabelWords> words{};
    if (len > 0) std::memcpy(words.data(), label.data(), len);
    for (std::size_t w = 0; w < kLabelWords; ++w) {
      slot.label[w].store(words[w], std::memory_order_release);
    }
    slot.seq.store(s0 + 2, std::memory_order_release);  // even: stable
    head_.store(event + 1, std::memory_order_release);
  }

  // Copies every surviving slot whose seqlock reads stable, oldest first.
  // A slot the writer overwrites mid-read fails the seq recheck and is
  // skipped; a slot overwritten *between* head read and slot read simply
  // yields the newer event, which the final sort puts in its place.
  std::vector<FlightEvent> snapshot() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t live = std::min<std::uint64_t>(head, slots_.size());
    std::vector<FlightEvent> out;
    out.reserve(live);
    for (std::uint64_t event = head - live; event < head; ++event) {
      const Slot& slot = slots_[event % slots_.size()];
      FlightEvent ev;
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;
      // Acquire payload loads keep the recheck of seq below after them.
      ev.seq = slot.event_seq.load(std::memory_order_acquire);
      ev.t_ns = slot.t_ns.load(std::memory_order_acquire);
      ev.a = slot.a.load(std::memory_order_acquire);
      ev.b = slot.b.load(std::memory_order_acquire);
      ev.kind =
          static_cast<FlightKind>(slot.kind.load(std::memory_order_acquire));
      const std::size_t len = std::min<std::size_t>(
          slot.label_len.load(std::memory_order_acquire),
          FlightRecorder::kLabelBytes);
      std::array<std::uint64_t, kLabelWords> words{};
      for (std::size_t w = 0; w < kLabelWords; ++w) {
        words[w] = slot.label[w].load(std::memory_order_acquire);
      }
      const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
      if (s1 != s2) continue;  // torn: writer lapped us mid-copy
      ev.label.assign(reinterpret_cast<const char*>(words.data()), len);
      ev.track = track_;
      out.push_back(std::move(ev));
    }
    std::sort(out.begin(), out.end(),
              [](const FlightEvent& x, const FlightEvent& y) {
                return x.seq < y.seq;
              });
    return out;
  }

  const std::string& track() const { return track_; }
  std::size_t bind_seq() const { return bind_seq_; }
  std::uint64_t total() const {
    return head_.load(std::memory_order_relaxed);
  }

 private:
  std::string track_;
  std::vector<Slot> slots_;
  std::size_t bind_seq_;
  std::atomic<std::uint64_t> head_{0};
};

namespace {

constexpr std::size_t kDefaultCapacity = 256;

FlightThreadBinding& tl_flight_binding() {
  thread_local FlightThreadBinding binding;
  return binding;
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Generations are unique across every FlightRecorder instance ever
// constructed, not just monotone per instance: a thread binding holds a
// raw recorder pointer, and a new recorder constructed at a recycled
// address must never validate a stale binding to a freed ring.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

}  // namespace detail

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kPassStart: return "pass-start";
    case FlightKind::kPassEnd: return "pass-end";
    case FlightKind::kSolverSeed: return "solver-seed";
    case FlightKind::kCacheProbe: return "cache-probe";
    case FlightKind::kRngStream: return "rng-stream";
    case FlightKind::kProgramBegin: return "program-begin";
    case FlightKind::kProgramEnd: return "program-end";
    case FlightKind::kOracleVerdict: return "oracle-verdict";
    case FlightKind::kNote: return "note";
  }
  return "note";
}

FlightRecorder::FlightRecorder() : capacity_(detail::kDefaultCapacity) {
  generation_.store(detail::next_generation(), std::memory_order_relaxed);
  epoch_ns_.store(detail::steady_now_ns(), std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder() = default;

std::uint64_t FlightRecorder::now_ns() const {
  const std::uint64_t now = detail::steady_now_ns();
  const std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return now >= epoch ? now - epoch : 0;
}

void FlightRecorder::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_release);
}

void FlightRecorder::set_capacity(std::size_t events) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<std::size_t>(1, events);
}

detail::FlightRing* FlightRecorder::current_ring() {
  detail::FlightThreadBinding& b = detail::tl_flight_binding();
  if (b.recorder == this && b.ring != nullptr &&
      b.generation == generation_.load(std::memory_order_relaxed)) {
    return b.ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Name the ring after the thread's trace track when it has one, so
  // forensic events line up with trace spans ("worker-3" in both).
  std::string track = current_trace_track();
  if (track.empty()) track = "flight-" + std::to_string(rings_.size());
  rings_.push_back(std::make_unique<detail::FlightRing>(
      std::move(track), capacity_, rings_.size()));
  b = {this, rings_.back().get(),
       generation_.load(std::memory_order_relaxed)};
  return b.ring;
}

void FlightRecorder::record(FlightKind kind, std::string_view label,
                            std::uint64_t a, std::uint64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  current_ring()->record(kind, label, a, b, now_ns());
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  for (const auto& ring : rings_) {
    std::vector<FlightEvent> events = ring->snapshot();
    out.insert(out.end(), std::make_move_iterator(events.begin()),
               std::make_move_iterator(events.end()));
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::snapshot_current_thread() const {
  const detail::FlightThreadBinding& b = detail::tl_flight_binding();
  if (b.recorder != this || b.ring == nullptr ||
      b.generation != generation_.load(std::memory_order_relaxed)) {
    return {};
  }
  return b.ring->snapshot();
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->total();
  return total;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rings_.clear();
  // Stale thread bindings (any thread, including the caller) now fail the
  // generation check and rebind to a fresh ring on next record.
  generation_.store(detail::next_generation(), std::memory_order_relaxed);
  epoch_ns_.store(detail::steady_now_ns(), std::memory_order_relaxed);
}

void FlightRecorder::write_events_json(
    const std::vector<FlightEvent>& events, JsonWriter& w) {
  w.begin_array();
  for (const FlightEvent& ev : events) {
    w.begin_object();
    w.key("kind").value(flight_kind_name(ev.kind));
    w.key("track").value(ev.track);
    w.key("seq").value(ev.seq);
    w.key("t_ns").value(ev.t_ns);
    w.key("a").value(ev.a);
    w.key("b").value(ev.b);
    w.key("label").value(ev.label);
    w.end_object();
  }
  w.end_array();
}

FlightRecorder& flight() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace parcm::obs
