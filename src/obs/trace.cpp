#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/diagnostics.hpp"

namespace parcm::obs {

// One thread's span storage. Single-writer: only the bound thread touches
// spans_/open_depth_/dropped_ between bind and unbind, so the hot path
// needs no lock; the sink serializes bind/unbind/snapshot under its mutex
// and snapshots only run after writers unbound (lifecycle asserts).
class SpanBuffer {
 public:
  SpanBuffer(std::string track, std::size_t capacity, std::size_t seq)
      : track_(std::move(track)), capacity_(capacity), seq_(seq) {
    spans_.reserve(capacity_);
  }

  int begin(std::string_view name, std::uint64_t now) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    TraceSpan span;
    span.name = std::string(name);
    span.start_ns = now;
    span.depth = open_depth_++;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int span, std::uint64_t now) {
    PARCM_CHECK(span >= 0 && span < static_cast<int>(spans_.size()),
                "trace span handle out of range");
    TraceSpan& s = spans_[static_cast<std::size_t>(span)];
    PARCM_CHECK(s.dur_ns == 0 && s.depth == open_depth_ - 1,
                "trace spans must close LIFO");
    s.dur_ns = now - s.start_ns;
    --open_depth_;
  }

  const std::string& track() const { return track_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t seq() const { return seq_; }
  bool bound() const { return bound_; }
  void set_bound(bool b) { bound_ = b; }

 private:
  std::string track_;
  std::vector<TraceSpan> spans_;
  std::size_t capacity_;
  std::size_t seq_;
  int open_depth_ = 0;
  std::uint64_t dropped_ = 0;
  bool bound_ = false;
};

namespace {

constexpr std::size_t kDefaultSpanCapacity = 1 << 16;

detail::TraceThreadBinding& tl_binding() {
  thread_local detail::TraceThreadBinding binding;
  return binding;
}

// Generations are unique across every TraceSink instance ever constructed,
// not just monotone per instance: a thread binding holds a raw sink
// pointer, and a new sink constructed at a recycled address must never
// validate a stale binding into a freed SpanBuffer.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceSink& trace() {
  static TraceSink sink;
  return sink;
}

namespace detail {

int trace_begin(std::string_view name) {
  TraceSink& t = trace();
  return t.enabled() ? t.begin(name) : -1;
}

void trace_end(int span) {
  if (span >= 0) trace().end(span);
}

}  // namespace detail

std::string current_trace_track() {
  const detail::TraceThreadBinding& b = tl_binding();
  if (b.sink != &trace() || b.buffer == nullptr) return {};
  return b.buffer->track();
}

TraceSink::TraceSink()
    : epoch_(std::chrono::steady_clock::now()),
      span_capacity_(kDefaultSpanCapacity) {
  generation_.store(next_generation(), std::memory_order_relaxed);
}

TraceSink::~TraceSink() = default;

std::uint64_t TraceSink::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceSink::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled) {
    // Owner adoption must not race in-flight workers: enable the sink
    // before spawning threads that bind buffers (and after joining the
    // previous batch's workers).
    PARCM_CHECK(scoped_bindings_ == 0,
                "TraceSink::set_enabled(true) with live thread bindings — "
                "enable tracing before spawning worker threads");
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }
  enabled_.store(enabled, std::memory_order_release);
}

void TraceSink::set_span_capacity(std::size_t spans) {
  std::lock_guard<std::mutex> lock(mu_);
  span_capacity_ = std::max<std::size_t>(1, spans);
}

SpanBuffer* TraceSink::acquire_buffer_locked(std::string_view track) {
  // Revive an unbound buffer of the same track so repeated binds (one
  // batch after another, scaling reruns) reuse storage instead of
  // registering a fresh buffer each time.
  for (auto& buf : buffers_) {
    if (!buf->bound() && buf->track() == track) {
      buf->set_bound(true);
      return buf.get();
    }
  }
  buffers_.push_back(std::make_unique<SpanBuffer>(
      std::string(track), span_capacity_, buffers_.size()));
  buffers_.back()->set_bound(true);
  return buffers_.back().get();
}

SpanBuffer* TraceSink::current_buffer() {
  detail::TraceThreadBinding& b = tl_binding();
  if (b.sink == this && b.buffer != nullptr &&
      b.generation == generation_.load(std::memory_order_relaxed)) {
    return b.buffer;
  }
  // Unbound (or stale) thread: only the owner self-binds, onto the "main"
  // track; any other thread must hold a TraceThreadScope, so its spans are
  // dropped rather than corrupting someone else's buffer.
  if (owner_.load(std::memory_order_relaxed) != std::this_thread::get_id()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  SpanBuffer* buf = acquire_buffer_locked("main");
  b = {this, buf, generation_.load(std::memory_order_relaxed)};
  return buf;
}

int TraceSink::begin(std::string_view name) {
  SpanBuffer* buf = current_buffer();
  if (buf == nullptr) return -1;
  return buf->begin(name, now_ns());
}

void TraceSink::end(int span) {
  if (span < 0) return;  // begin() dropped the span (full buffer / unbound)
  SpanBuffer* buf = current_buffer();
  if (buf == nullptr) return;  // binding went stale between begin and end
  buf->end(span, now_ns());
}

detail::TraceThreadBinding TraceSink::bind_current_thread(
    std::string_view track) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanBuffer* buf = acquire_buffer_locked(track);
  ++scoped_bindings_;
  detail::TraceThreadBinding previous = tl_binding();
  tl_binding() = {this, buf,
                  generation_.load(std::memory_order_relaxed)};
  return previous;
}

void TraceSink::unbind_current_thread(
    const detail::TraceThreadBinding& previous) {
  std::lock_guard<std::mutex> lock(mu_);
  detail::TraceThreadBinding& b = tl_binding();
  if (b.sink == this && b.buffer != nullptr &&
      b.generation == generation_.load(std::memory_order_relaxed)) {
    b.buffer->set_bound(false);
  }
  PARCM_CHECK(scoped_bindings_ > 0, "trace thread scope unbalanced");
  --scoped_bindings_;
  tl_binding() = previous;
}

void TraceSink::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  PARCM_CHECK(scoped_bindings_ == 0,
              "TraceSink::clear with live thread bindings — join worker "
              "threads before clearing the trace");
  buffers_.clear();
  // Stale thread-local bindings (including the owner's own) now fail the
  // generation check instead of dangling into freed buffers.
  generation_.store(next_generation(), std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

std::vector<std::string> TraceSink::tracks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& buf : buffers_) names.push_back(buf->track());
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) total += buf->dropped();
  return total;
}

std::vector<TraceSpan> TraceSink::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Key {
    std::string_view track;
    std::uint64_t start_ns;
    std::size_t buffer_seq;
    std::size_t index;
  };
  std::vector<std::pair<Key, const TraceSpan*>> items;
  for (const auto& buf : buffers_) {
    const auto& spans = buf->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      items.push_back({{buf->track(), spans[i].start_ns, buf->seq(), i},
                       &spans[i]});
    }
  }
  // Deterministic merge: by (track, start_ns, buffer registration, index).
  // start_ns alone can tie at clock resolution; buffer/index break the tie
  // in begin order.
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) {
              if (a.first.track != b.first.track)
                return a.first.track < b.first.track;
              if (a.first.start_ns != b.first.start_ns)
                return a.first.start_ns < b.first.start_ns;
              if (a.first.buffer_seq != b.first.buffer_seq)
                return a.first.buffer_seq < b.first.buffer_seq;
              return a.first.index < b.first.index;
            });
  std::vector<TraceSpan> out;
  out.reserve(items.size());
  for (const auto& [key, span] : items) {
    out.push_back(*span);
    out.back().track = std::string(key.track);
  }
  return out;
}

std::string TraceSink::tree() const {
  std::vector<TraceSpan> spans = this->spans();
  std::vector<std::string> tracks = this->tracks();
  std::ostringstream os;
  os << "trace (" << spans.size() << " span"
     << (spans.size() == 1 ? "" : "s");
  if (tracks.size() > 1) os << ", " << tracks.size() << " tracks";
  os << ")\n";
  // Spans arrive grouped per track in begin order, so printing in order
  // with depth indentation reproduces each track's call tree.
  std::size_t width = 0;
  for (const TraceSpan& s : spans) {
    width = std::max(width,
                     2 * static_cast<std::size_t>(s.depth) + s.name.size());
  }
  std::string current_track;
  for (const TraceSpan& s : spans) {
    if (tracks.size() > 1 && s.track != current_track) {
      current_track = s.track;
      os << "track " << current_track << ":\n";
    }
    std::string label(2 * static_cast<std::size_t>(s.depth) + 2, ' ');
    label += s.name;
    os << label << std::string(width + 4 - label.size(), ' ');
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%10.3f ms",
                  static_cast<double>(s.dur_ns) / 1e6);
    os << buf << "\n";
  }
  return os.str();
}

void TraceSink::write_chrome_json(JsonWriter& w) const {
  std::vector<TraceSpan> spans = this->spans();
  std::vector<std::string> tracks = this->tracks();
  std::map<std::string, int> tid_of;
  for (const std::string& t : tracks) {
    tid_of.emplace(t, static_cast<int>(tid_of.size()));
  }
  w.begin_object();
  w.key("schema").value("parcm-trace-v1");
  w.key("traceEvents").begin_array();
  w.begin_object();
  w.key("name").value("process_name");
  w.key("ph").value("M");
  w.key("pid").value(0);
  w.key("tid").value(0);
  w.key("args").begin_object();
  w.key("name").value("parcm");
  w.end_object();
  w.end_object();
  for (const std::string& t : tracks) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(0);
    w.key("tid").value(tid_of.at(t));
    w.key("args").begin_object();
    w.key("name").value(t);
    w.end_object();
    w.end_object();
  }
  for (const TraceSpan& s : spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value("parcm");
    w.key("ph").value("X");
    w.key("ts").value(static_cast<double>(s.start_ns) / 1e3);  // microseconds
    w.key("dur").value(static_cast<double>(s.dur_ns) / 1e3);
    w.key("pid").value(0);
    w.key("tid").value(tid_of.at(s.track));
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.end_object();
}

std::string TraceSink::chrome_json(bool pretty) const {
  JsonWriter w(pretty);
  write_chrome_json(w);
  return w.take();
}

TraceThreadScope::TraceThreadScope(std::string_view track) {
  TraceSink& t = trace();
  if (!t.enabled() || track.empty()) return;
  sink_ = &t;
  previous_ = t.bind_current_thread(track);
}

TraceThreadScope::~TraceThreadScope() {
  if (sink_ != nullptr) sink_->unbind_current_thread(previous_);
}

}  // namespace parcm::obs
