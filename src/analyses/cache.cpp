#include "analyses/cache.hpp"

#include <utility>

#include "obs/flight.hpp"
#include "obs/remarks.hpp"
#include "obs/metrics.hpp"
#include "support/arena.hpp"

namespace parcm {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Hasher {
  std::uint64_t h = kFnvOffset;
  // When set, every mixed word is appended so the caller gets the full
  // pre-image of the hash (StructuralKey::words).
  std::vector<std::uint64_t>* words = nullptr;

  void mix(std::uint64_t v) {
    if (words != nullptr) words->push_back(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= kFnvPrime;
    }
  }

  void mix_operand(const Operand& o) {
    mix(o.is_var() ? 1 : 2);
    mix(o.is_var() ? o.var_id().value()
                   : static_cast<std::uint64_t>(o.const_value()));
  }

  void mix_rhs(const Rhs& r) {
    if (r.is_term()) {
      const Term& t = r.term();
      mix(3);
      mix(static_cast<std::uint64_t>(t.op));
      mix_operand(t.lhs);
      mix_operand(t.rhs);
    } else {
      mix(4);
      mix_operand(r.trivial());
    }
  }
};

std::uint64_t hash_graph(const Graph& g, std::vector<std::uint64_t>* words) {
  Hasher hasher;
  hasher.words = words;
  hasher.mix(g.num_nodes());
  hasher.mix(g.num_regions());
  hasher.mix(g.num_par_stmts());
  for (NodeId n : g.all_nodes()) {
    const Node& node = g.node(n);
    hasher.mix(static_cast<std::uint64_t>(node.kind));
    hasher.mix(node.region.value());
    if (node.kind == NodeKind::kAssign) {
      hasher.mix(node.lhs.value());
      hasher.mix_rhs(node.rhs);
    }
    if (node.cond.has_value()) hasher.mix_rhs(*node.cond);
    // Adjacency (removed edges are absent from the per-node lists).
    hasher.mix(node.out_edges.size());
    for (EdgeId e : node.out_edges) hasher.mix(g.edge(e).to.value());
  }
  for (std::size_t si = 0; si < g.num_par_stmts(); ++si) {
    const ParStmt& s = g.par_stmt(ParStmtId(static_cast<ParStmtId::underlying>(si)));
    hasher.mix(s.begin.value());
    hasher.mix(s.end.value());
    hasher.mix(s.parent_region.value());
    hasher.mix(s.components.size());
    for (RegionId c : s.components) hasher.mix(c.value());
  }
  return hasher.h;
}

thread_local AnalysisCache* thread_cache = nullptr;
thread_local SharedAnalysisCache* thread_shared_cache = nullptr;

}  // namespace

std::uint64_t structural_hash(const Graph& g) { return hash_graph(g, nullptr); }

StructuralKey structural_key(const Graph& g) {
  StructuralKey key;
  key.hash = hash_graph(g, &key.words);
  return key;
}

SharedAnalysisCache::Entry* SharedAnalysisCache::locate(
    Shard& shard, const StructuralKey& key, bool insert_missing) {
  auto it = shard.entries.find(key.hash);
  if (it != shard.entries.end()) {
    if (it->second.key == key) return &it->second;
    // 64-bit collision: keep the incumbent, report a definite miss. The
    // colliding shape simply never caches — correctness over hit rate.
    PARCM_OBS_COUNT("analysis.shared_cache.collisions", 1);
    return nullptr;
  }
  if (!insert_missing) return nullptr;
  if (shard.entries.size() >= kMaxEntriesPerShard) {
    // Wholesale flush: cheap, and hit/miss outcomes can never change what a
    // program's results look like, only how often analyses rebuild.
    PARCM_OBS_COUNT("analysis.shared_cache.evictions", shard.entries.size());
    shard.entries.clear();
  }
  Entry& e = shard.entries[key.hash];
  e.key = key;
  return &e;
}

std::shared_ptr<const AnalysisBundle> SharedAnalysisCache::find_bundle(
    const StructuralKey& key) {
  Shard& shard = shards_[key.hash % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* e = locate(shard, key, /*insert_missing=*/false);
  return e != nullptr ? e->bundle : nullptr;
}

void SharedAnalysisCache::put_bundle(
    const StructuralKey& key, std::shared_ptr<const AnalysisBundle> bundle) {
  Shard& shard = shards_[key.hash % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry* e = locate(shard, key, /*insert_missing=*/true);
  if (e != nullptr && e->bundle == nullptr) {
    e->bundle = std::move(bundle);
    PARCM_OBS_COUNT("analysis.shared_cache.inserts", 1);
  }
}

void SharedAnalysisCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
  }
}

std::size_t SharedAnalysisCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

std::shared_ptr<const AnalysisBundle> AnalysisCache::acquire(const Graph& g) {
  // Every acquisition counts as a miss; only the shared tier spares a
  // build, so BatchReport::cache_hit_rate is 1 - builds / misses.
  PARCM_OBS_COUNT("analysis.cache.misses", 1);
  StructuralKey key = structural_key(g);
  SharedAnalysisCache* shared = thread_shared_cache;
  std::shared_ptr<const AnalysisBundle> bundle;
  if (shared != nullptr) {
    bundle = shared->find_bundle(key);
    if (bundle != nullptr) {
      PARCM_OBS_COUNT("analysis.shared_cache.hits", 1);
    } else {
      PARCM_OBS_COUNT("analysis.shared_cache.misses", 1);
    }
  }
  PARCM_OBS_FLIGHT(obs::FlightKind::kCacheProbe, "bundle", key.hash,
                   bundle != nullptr ? 1 : 0);
  if (bundle == nullptr) {
    PARCM_OBS_COUNT("analysis.cache.builds", 1);
    // A shared-tier entry outlives the current job, so its memory must come
    // from the heap even while a program arena is installed.
    ArenaPauseScope no_arena;
    bundle = std::make_shared<const AnalysisBundle>(g);
    if (shared != nullptr) shared->put_bundle(key, bundle);
  }
  maybe_emit(g, *bundle, key.hash);
  return bundle;
}

void AnalysisCache::maybe_emit(const Graph& g, const AnalysisBundle& bundle,
                               std::uint64_t hash) {
  if (!PARCM_OBS_REMARKS_ON()) return;
  std::uint64_t epoch = obs::remarks().epoch();
  // Lock-free fast path for the overwhelmingly common case: the same
  // content re-acquired within one epoch (several passes over one program).
  // A miss only costs the slow path below, so a stale read is harmless.
  if (last_emit_epoch_.load(std::memory_order_acquire) == epoch &&
      last_emit_hash_.load(std::memory_order_relaxed) == hash) {
    return;
  }
  bool emit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch != emit_epoch_) {
      emitted_.clear();
      emit_epoch_ = epoch;
    }
    emit = emitted_.insert(hash).second;
  }
  if (emit) emit_acquisition_remarks(g, bundle.terms, bundle.preds);
  last_emit_hash_.store(hash, std::memory_order_relaxed);
  last_emit_epoch_.store(epoch, std::memory_order_release);
}

AnalysisCache& analysis_cache() {
  static AnalysisCache cache;
  if (thread_cache) return *thread_cache;
  return cache;
}

AnalysisCache* set_thread_analysis_cache(AnalysisCache* c) {
  AnalysisCache* prev = thread_cache;
  thread_cache = c;
  return prev;
}

SharedAnalysisCache& process_shared_analysis_cache() {
  static SharedAnalysisCache cache;
  return cache;
}

SharedAnalysisCache* set_thread_shared_analysis_cache(SharedAnalysisCache* c) {
  SharedAnalysisCache* prev = thread_shared_cache;
  thread_shared_cache = c;
  return prev;
}

}  // namespace parcm
