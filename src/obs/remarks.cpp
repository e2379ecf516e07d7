#include "obs/remarks.hpp"

#include <algorithm>
#include <sstream>

#include "obs/json.hpp"

namespace parcm::obs {

namespace {

RemarkSink default_sink;
std::atomic<RemarkSink*> current_sink{&default_sink};
thread_local RemarkSink* thread_sink = nullptr;

}  // namespace

RemarkSink& remarks() {
  if (thread_sink) return *thread_sink;
  return *current_sink.load(std::memory_order_acquire);
}

RemarkSink* set_remark_sink(RemarkSink* s) {
  return current_sink.exchange(s ? s : &default_sink,
                               std::memory_order_acq_rel);
}

RemarkSink* set_thread_remark_sink(RemarkSink* s) {
  RemarkSink* prev = thread_sink;
  thread_sink = s;
  return prev;
}

const char* remark_kind_name(RemarkKind kind) {
  switch (kind) {
    case RemarkKind::kInserted: return "inserted";
    case RemarkKind::kReplaced: return "replaced";
    case RemarkKind::kBlocked: return "blocked";
    case RemarkKind::kSkipped: return "skipped";
    case RemarkKind::kDegraded: return "degraded";
  }
  return "?";
}

const char* remark_reason_id(RemarkReason r) {
  switch (r) {
    case RemarkReason::kComputes: return "computes";
    case RemarkReason::kUpSafe: return "up-safe";
    case RemarkReason::kDownSafe: return "down-safe";
    case RemarkReason::kEarliest: return "earliest";
    case RemarkReason::kLatest: return "latest";
    case RemarkReason::kIsolated: return "isolated";
    case RemarkReason::kAnchorSunk: return "anchor-sunk";
    case RemarkReason::kValueDies: return "value-dies";
    case RemarkReason::kEdgePlacement: return "edge-placement";
    case RemarkReason::kBottleneck: return "bottleneck-p1";
    case RemarkReason::kRecursiveSplit: return "recursive-split-p2";
    case RemarkReason::kWitnessDiffers: return "interleaving-witness-p3";
    case RemarkReason::kExported: return "parend-export";
    case RemarkReason::kOperandKilled: return "operand-killed";
    case RemarkReason::kPrivatized: return "privatized-temp";
    case RemarkReason::kBridgeCopy: return "bridge-copy";
    case RemarkReason::kBarrierPhase: return "barrier-phase";
    case RemarkReason::kDeadAssignment: return "dead-assignment";
    case RemarkReason::kPartiallyDead: return "partially-dead";
    case RemarkReason::kContested: return "contested-variable";
    case RemarkReason::kUnprofitable: return "unprofitable";
  }
  return "?";
}

const char* remark_reason_label(RemarkReason r) {
  switch (r) {
    case RemarkReason::kComputes: return "computes the term";
    case RemarkReason::kUpSafe: return "up-safe";
    case RemarkReason::kDownSafe: return "down-safe";
    case RemarkReason::kEarliest: return "earliest";
    case RemarkReason::kLatest: return "latest";
    case RemarkReason::kIsolated:
      return "isolated: temp would serve only its own insertion";
    case RemarkReason::kAnchorSunk: return "anchor sunk to must-use frontier";
    case RemarkReason::kValueDies:
      return "value dies: every continuation kills it before a use";
    case RemarkReason::kEdgePlacement: return "placed on each outgoing edge";
    case RemarkReason::kBottleneck:
      return "bottleneck: would move work into a transparent parallel "
             "component (P1)";
    case RemarkReason::kRecursiveSplit:
      return "recursive-assignment guard: implicit decomposition (P2)";
    case RemarkReason::kWitnessDiffers:
      return "not up-safe_par: per-interleaving witness differs (P3)";
    case RemarkReason::kExported:
      return "statement exports the value across the join (up-safe_par)";
    case RemarkReason::kOperandKilled:
      return "computes the term but assigns one of its operands";
    case RemarkReason::kPrivatized:
      return "component-private temporary: sibling modifies an operand";
    case RemarkReason::kBridgeCopy:
      return "zero-cost bridge copy across the component boundary";
    case RemarkReason::kBarrierPhase:
      return "anticipability cut at a synchronization barrier";
    case RemarkReason::kDeadAssignment:
      return "dead: no interleaving reads the value before overwrite";
    case RemarkReason::kPartiallyDead:
      return "partially dead: sunk to its use frontier";
    case RemarkReason::kContested:
      return "contested variable: potentially-parallel access";
    case RemarkReason::kUnprofitable: return "unprofitable: no path improves";
  }
  return "?";
}

const char* remark_reason_pitfall(RemarkReason r) {
  switch (r) {
    case RemarkReason::kBottleneck: return "P1";
    case RemarkReason::kRecursiveSplit: return "P2";
    case RemarkReason::kWitnessDiffers: return "P3";
    default: return nullptr;
  }
}

std::string remark_to_string(const Remark& r) {
  std::ostringstream os;
  if (r.node >= 0) os << "n" << r.node << " ";
  os << "[" << remark_kind_name(r.kind) << "]";
  if (!r.pass.empty()) os << " " << r.pass;
  if (!r.term.empty()) {
    os << " `" << r.term << "`";
  } else if (r.term_index >= 0) {
    os << " t" << r.term_index;
  }
  os << ": " << r.message;
  if (!r.reasons.empty()) {
    os << " (";
    for (std::size_t i = 0; i < r.reasons.size(); ++i) {
      if (i) os << " ∧ ";
      os << remark_reason_label(r.reasons[i]);
    }
    os << ")";
  }
  if (!r.detail.empty()) os << " — " << r.detail;
  return os.str();
}

void RemarkSink::emit(Remark r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (r.pass.empty()) r.pass = pass_;
  remarks_.push_back(std::move(r));
}

void RemarkSink::emit_batch(std::vector<Remark>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep geometric growth: reserving to the exact size on every batch
  // would reallocate once per batch.
  std::size_t need = remarks_.size() + batch.size();
  if (remarks_.capacity() < need) {
    remarks_.reserve(std::max(need, remarks_.size() * 2));
  }
  for (Remark& r : batch) {
    if (r.pass.empty()) r.pass = pass_;
    remarks_.push_back(std::move(r));
  }
  batch.clear();
}

std::string RemarkSink::set_pass(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string prev = std::move(pass_);
  pass_ = std::move(name);
  return prev;
}

std::string RemarkSink::pass() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pass_;
}

std::uint64_t RemarkSink::next_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void RemarkSink::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  remarks_.clear();
  epoch_.store(next_epoch(), std::memory_order_release);
}

bool RemarkSink::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remarks_.empty();
}

std::size_t RemarkSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remarks_.size();
}

std::vector<Remark> RemarkSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remarks_;
}

std::string RemarkSink::to_string() const {
  std::ostringstream os;
  for (const Remark& r : snapshot()) os << remark_to_string(r) << "\n";
  return os.str();
}

void RemarkSink::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("schema").value("parcm-remarks-v1");
  w.key("remarks").begin_array();
  for (const Remark& r : snapshot()) {
    w.begin_object();
    w.key("kind").value(remark_kind_name(r.kind));
    w.key("pass").value(r.pass);
    w.key("node").value(r.node);
    w.key("term_index").value(r.term_index);
    w.key("term").value(r.term);
    w.key("message").value(r.message);
    w.key("reasons").begin_array();
    for (RemarkReason reason : r.reasons) w.value(remark_reason_id(reason));
    w.end_array();
    w.key("pitfalls").begin_array();
    for (RemarkReason reason : r.reasons) {
      if (const char* p = remark_reason_pitfall(reason)) w.value(p);
    }
    w.end_array();
    w.key("detail").value(r.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string RemarkSink::to_json(bool pretty) const {
  JsonWriter w(pretty);
  write_json(w);
  return w.take();
}

}  // namespace parcm::obs
