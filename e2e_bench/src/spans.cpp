#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

namespace e2e {

namespace {

struct ThreadLog {
  ThreadSpans out;
  std::vector<std::int32_t> open;  // indices of the spans still open
  std::uint64_t request = 0;
  std::array<std::uint64_t, kNumCounts> counts{};
};

struct Recorder {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLog>> logs;  // guarded by mu
  std::atomic<bool> enabled{false};
  // Bumped by tracing_start(); a thread whose cached log is from an older
  // generation registers a fresh one.
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> next_request{0};
  std::thread::id main_thread;  // guarded by mu; the thread that started
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

thread_local ThreadLog* t_log = nullptr;
thread_local std::uint64_t t_generation = 0;

ThreadLog& this_thread_log() {
  Recorder& r = recorder();
  std::uint64_t gen = r.generation.load(std::memory_order_acquire);
  if (t_log == nullptr || t_generation != gen) {
    auto log = std::make_unique<ThreadLog>();
    std::lock_guard<std::mutex> lock(r.mu);
    log->out.is_main = std::this_thread::get_id() == r.main_thread;
    log->out.name = log->out.is_main
                        ? std::string("harness")
                        : "worker-" + std::to_string(r.logs.size());
    t_log = log.get();
    t_generation = gen;
    r.logs.push_back(std::move(log));
  }
  return *t_log;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* layer_call(Layer layer) {
  switch (layer) {
    case Layer::kRunBatch: return "parcm::driver::run_batch";
    case Layer::kCompile: return "parcm::lang::compile";
    case Layer::kPipeline: return "parcm::Pipeline::run";
    case Layer::kPcm: return "parcm::parallel_code_motion";
    case Layer::kSafety: return "parcm::compute_safety";
    case Layer::kConstprop: return "parcm::propagate_constants";
    case Layer::kSinking: return "parcm::sink_partially_dead_assignments";
    case Layer::kLiveness: return "parcm::compute_parallel_liveness";
    case Layer::kDce: return "parcm::eliminate_dead_assignments";
    case Layer::kValidate: return "parcm::validate_or_throw";
    case Layer::kPrint: return "parcm::to_text";
    case Layer::kExact: return "parcm::verify::differential_check";
    case Layer::kVm: return "parcm::verify::vm_differential_check";
    case Layer::kVmLower: return "parcm::vm::lower_to_bytecode";
    case Layer::kVmRun: return "parcm::vm::SeededRunner::run";
  }
  return "?";
}

void tracing_start() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  r.logs.clear();
  r.main_thread = std::this_thread::get_id();
  r.next_request = 0;
  r.generation.fetch_add(1, std::memory_order_release);
  r.enabled = true;
}

void tracing_stop() { recorder().enabled = false; }

bool tracing_enabled() {
  return recorder().enabled.load(std::memory_order_relaxed);
}

Scope::Scope(Layer layer) : active_(tracing_enabled()) {
  if (!active_) return;
  ThreadLog& log = this_thread_log();
  if (layer == Layer::kCompile && log.open.empty()) {
    log.request = ++recorder().next_request;
  }
  std::int32_t parent = log.open.empty() ? -1 : log.open.back();
  log.open.push_back(static_cast<std::int32_t>(log.out.spans.size()));
  log.out.spans.push_back(Span{layer, parent, log.request, now_ns(), 0});
}

Scope::~Scope() {
  if (!active_) return;
  ThreadLog& log = *t_log;
  log.out.spans[log.open.back()].end_ns = now_ns();
  log.open.pop_back();
}

void count(Count c, std::uint64_t n) {
  if (!tracing_enabled()) return;
  this_thread_log().counts[static_cast<std::size_t>(c)] += n;
}

Recording recording() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  Recording rec;
  for (const auto& log : r.logs) {
    rec.threads.push_back(log->out);
    for (std::size_t c = 0; c < kNumCounts; ++c) {
      rec.counts[c] += log->counts[c];
    }
  }
  return rec;
}

LayerTimes account(const Recording& rec) {
  std::size_t batches = 0;
  for (const ThreadSpans& t : rec.threads) {
    if (!t.is_main) continue;
    for (const Span& s : t.spans) batches += s.layer == Layer::kRunBatch;
  }
  const double workers =
      batches == 0 ? 1.0
                   : static_cast<double>(
                         rec.counts[static_cast<std::size_t>(Count::kWorkers)]) /
                         static_cast<double>(batches);
  LayerTimes lt;
  for (const ThreadSpans& t : rec.threads) {
    const double weight = t.is_main ? 1.0 : 1.0 / workers;
    for (const Span& s : t.spans) {
      const double ms = weight * static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      const auto layer = static_cast<std::size_t>(s.layer);
      lt.total_ms[layer] += ms;
      lt.self_ms[layer] += ms;
      if (s.parent >= 0) {
        lt.self_ms[static_cast<std::size_t>(t.spans[s.parent].layer)] -= ms;
      } else if (t.is_main) {
        lt.covered_ms += ms;
      } else {
        lt.self_ms[static_cast<std::size_t>(Layer::kRunBatch)] -= ms;
      }
    }
  }
  return lt;
}

bool write_chrome_trace(const Recording& rec, std::int64_t until_ns,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const ThreadSpans& t : rec.threads) {
    for (const Span& s : t.spans) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t tid = 0; tid < rec.threads.size(); ++tid) {
    const ThreadSpans& t = rec.threads[tid];
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", tid, t.name.c_str());
    first = false;
    for (const Span& s : t.spans) {
      if (s.start_ns >= until_ns) continue;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"request\":%llu,\"parent\":%d}}",
                   layer_call(s.layer), tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request), s.parent);
    }
  }
  std::fputs("\n]}\n", f);
  bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace e2e
