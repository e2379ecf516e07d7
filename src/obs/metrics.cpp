#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "obs/json.hpp"

namespace parcm::obs {

namespace {

Registry default_registry;
std::atomic<Registry*> current_registry{&default_registry};
thread_local Registry* thread_registry = nullptr;

// The process-wide counter-name table. Append-only: a slot keeps its name
// for the rest of the process, and deque elements never move, so the
// interned strings can be handed out by pointer. Never destroyed, so
// counters added from static destructors still resolve.
struct CounterTable {
  std::mutex mu;
  std::deque<std::string> names;
  std::unordered_map<std::string_view, std::uint32_t> slots;
};

CounterTable& counter_table() {
  static CounterTable* table = new CounterTable;
  return *table;
}

// Slot of an already interned name; false when it was never interned (so
// no registry can hold it).
bool find_counter_slot(std::string_view name, std::uint32_t* slot) {
  CounterTable& table = counter_table();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.slots.find(name);
  if (it == table.slots.end()) return false;
  *slot = it->second;
  return true;
}

}  // namespace

CounterKey intern_counter(std::string_view name) {
  CounterTable& table = counter_table();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.slots.find(name);
  if (it != table.slots.end()) {
    return {it->second, &table.names[it->second]};
  }
  const std::string& stored = table.names.emplace_back(name);
  auto slot = static_cast<std::uint32_t>(table.names.size() - 1);
  table.slots.emplace(stored, slot);
  return {slot, &stored};
}

Registry& registry() {
  if (thread_registry) return *thread_registry;
  return *current_registry.load(std::memory_order_acquire);
}

Registry* set_registry(Registry* r) {
  return current_registry.exchange(r ? r : &default_registry,
                                   std::memory_order_acq_rel);
}

Registry* set_thread_registry(Registry* r) {
  Registry* prev = thread_registry;
  thread_registry = r;
  return prev;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min());
  if (p >= 100.0) return static_cast<double>(max_);
  // Rank of the requested quantile in [0, count]; the first bucket whose
  // cumulative count reaches it holds the answer.
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += buckets_[b];
    if (static_cast<double>(cum) >= target) {
      const double lo =
          b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi =
          b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b)) - 1.0;
      const double frac =
          (target - before) / static_cast<double>(buckets_[b]);
      double v = lo + frac * (hi - lo);
      // Bucket edges can overshoot what was actually observed.
      v = std::max(v, static_cast<double>(min()));
      v = std::min(v, static_cast<double>(max_));
      return v;
    }
  }
  return static_cast<double>(max_);
}

Histogram Histogram::from_serialized(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& buckets,
    std::uint64_t sum, std::uint64_t min, std::uint64_t max) {
  Histogram h;
  for (const auto& [bucket, count] : buckets) {
    if (bucket >= kNumBuckets || count == 0) continue;
    h.buckets_[bucket] += count;
    h.count_ += count;
  }
  if (h.count_ > 0) {
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
  }
  return h;
}

void Registry::add_counter(const CounterKey& key, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (key.slot >= counter_values_.size()) {
    counter_values_.resize(key.slot + 1, 0);
    counter_names_.resize(key.slot + 1, nullptr);
  }
  counter_values_[key.slot] += delta;
  counter_names_[key.slot] = key.name;
}

void Registry::add_counter(std::string_view name, std::uint64_t delta) {
  add_counter(intern_counter(name), delta);
}

void Registry::set_gauge(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void Registry::add_timer_ns(std::string_view name, std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) it = timers_.emplace(std::string(name), TimerStat{}).first;
  it->second.count += 1;
  it->second.total_ns += ns;
}

void Registry::record_hist(std::string_view name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.record(value);
}

void Registry::merge_hist(std::string_view name, const Histogram& shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.merge_from(shard);
}

void Registry::add_timer_stat(std::string_view name, const TimerStat& stat) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), TimerStat{}).first;
  }
  it->second.count += stat.count;
  it->second.total_ns += stat.total_ns;
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (std::size_t s = 0; s < counter_names_.size(); ++s) {
    if (counter_names_[s] != nullptr) {
      out.emplace(*counter_names_[s], counter_values_[s]);
    }
  }
  return out;
}

std::map<std::string, double> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {gauges_.begin(), gauges_.end()};
}

std::map<std::string, TimerStat> Registry::timers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {timers_.begin(), timers_.end()};
}

std::map<std::string, Histogram> Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {histograms_.begin(), histograms_.end()};
}

std::uint64_t Registry::counter(std::string_view name) const {
  std::uint32_t slot = 0;
  if (!find_counter_slot(name, &slot)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return slot < counter_values_.size() ? counter_values_[slot] : 0;
}

Histogram Registry::histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram{} : it->second;
}

void Registry::counter_values(std::vector<std::uint64_t>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->assign(counter_values_.begin(), counter_values_.end());
}

void Registry::counter_deltas(std::span<const std::uint64_t> before,
                              CounterDeltas* deltas) const {
  const std::size_t first = deltas->size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto before_at = [&](std::size_t s) {
      return s < before.size() ? before[s] : std::uint64_t{0};
    };
    std::size_t moved = 0;
    for (std::size_t s = 0; s < counter_values_.size(); ++s) {
      moved += counter_values_[s] != before_at(s);
    }
    deltas->reserve(first + moved);
    for (std::size_t s = 0; s < counter_values_.size(); ++s) {
      if (counter_values_[s] != before_at(s)) {
        deltas->emplace_back(*counter_names_[s],
                             counter_values_[s] - before_at(s));
      }
    }
  }
  std::sort(deltas->begin() + static_cast<std::ptrdiff_t>(first),
            deltas->end());
}

void Registry::merge_from(const Registry& other) {
  // Snapshot first: locking both registries at once invites deadlock, and
  // merge sources are quiescent per-worker registries anyway.
  std::vector<std::uint64_t> counter_values;
  std::vector<const std::string*> counter_names;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    counter_values = other.counter_values_;
    counter_names = other.counter_names_;
  }
  auto gauges = other.gauges();
  auto timers = other.timers();
  auto histograms = other.histograms();
  std::lock_guard<std::mutex> lock(mu_);
  if (counter_names.size() > counter_names_.size()) {
    counter_values_.resize(counter_names.size(), 0);
    counter_names_.resize(counter_names.size(), nullptr);
  }
  for (std::size_t s = 0; s < counter_names.size(); ++s) {
    if (counter_names[s] == nullptr) continue;
    counter_values_[s] += counter_values[s];
    counter_names_[s] = counter_names[s];
  }
  for (const auto& [k, v] : gauges) gauges_[k] = v;
  for (const auto& [k, v] : timers) {
    TimerStat& t = timers_[k];
    t.count += v.count;
    t.total_ns += v.total_ns;
  }
  for (const auto& [k, v] : histograms) histograms_[k].merge_from(v);
}

void Registry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counter_values_.clear();
  counter_names_.clear();
  gauges_.clear();
  timers_.clear();
  histograms_.clear();
}

bool Registry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::all_of(counter_names_.begin(), counter_names_.end(),
                     [](const std::string* name) { return name == nullptr; }) &&
         gauges_.empty() && timers_.empty() && histograms_.empty();
}

std::string Registry::to_string() const {
  auto counters = this->counters();
  auto gauges = this->gauges();
  auto timers = this->timers();
  auto histograms = this->histograms();

  std::size_t width = 0;
  for (const auto& [k, v] : counters) width = std::max(width, k.size());
  for (const auto& [k, v] : gauges) width = std::max(width, k.size());
  for (const auto& [k, v] : timers) width = std::max(width, k.size());
  for (const auto& [k, v] : histograms) width = std::max(width, k.size());

  std::ostringstream os;
  auto pad = [&](const std::string& k) {
    os << "  " << k << std::string(width - k.size() + 2, ' ');
  };
  if (!counters.empty()) {
    os << "counters:\n";
    for (const auto& [k, v] : counters) {
      pad(k);
      os << v << "\n";
    }
  }
  if (!gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [k, v] : gauges) {
      pad(k);
      os << json_number(v) << "\n";
    }
  }
  if (!timers.empty()) {
    os << "timers:" << std::string(width > 5 ? width - 5 : 1, ' ')
       << "  calls     total ms\n";
    for (const auto& [k, v] : timers) {
      pad(k);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%7llu %12.3f",
                    static_cast<unsigned long long>(v.count), v.total_ms());
      os << buf << "\n";
    }
  }
  if (!histograms.empty()) {
    os << "histograms:" << std::string(width > 9 ? width - 9 : 1, ' ')
       << "  count          p50          p90          p99\n";
    for (const auto& [k, v] : histograms) {
      pad(k);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%7llu %12.0f %12.0f %12.0f",
                    static_cast<unsigned long long>(v.count()), v.p50(),
                    v.p90(), v.p99());
      os << buf << "\n";
    }
  }
  if (counters.empty() && gauges.empty() && timers.empty() &&
      histograms.empty()) {
    os << "(no metrics recorded)\n";
  }
  return os.str();
}

void Registry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("schema").value("parcm-metrics-v1");
  w.key("counters").begin_object();
  for (const auto& [k, v] : counters()) w.key(k).value(v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [k, v] : gauges()) w.key(k).value(v);
  w.end_object();
  w.key("timers").begin_object();
  for (const auto& [k, v] : timers()) {
    w.key(k).begin_object();
    w.key("count").value(v.count);
    w.key("total_ms").value(v.total_ms());
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [k, v] : histograms()) {
    w.key(k).begin_object();
    w.key("count").value(v.count());
    w.key("sum").value(v.sum());
    w.key("min").value(v.min());
    w.key("max").value(v.max());
    w.key("mean").value(v.mean());
    w.key("p50").value(v.p50());
    w.key("p90").value(v.p90());
    w.key("p99").value(v.p99());
    // Sparse bucket array [[bucket, count], ...]: the exact distribution,
    // so consumers (parcm_profile) can merge histograms across files
    // losslessly instead of averaging the summary statistics.
    w.key("buckets").begin_array();
    const auto& buckets = v.buckets();
    for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      if (buckets[b] == 0) continue;
      w.begin_array();
      w.value(b);
      w.value(buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string Registry::to_json(bool pretty) const {
  JsonWriter w(pretty);
  write_json(w);
  return w.take();
}

}  // namespace parcm::obs
