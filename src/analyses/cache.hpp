// Cross-pass analysis cache.
//
// TermTable and LocalPredicates depend only on a graph's content. acquire()
// computes a structural key over nodes, edges, regions and parallel
// statements and, when the calling thread has a shared tier installed,
// looks the bundle up there: a process-wide lock-striped map from
// structural key to immutable artifacts, so a corpus full of similar shapes
// builds each bundle once per shape instead of once per program.
// Collisions on the 64-bit hash are rejected by a full key compare, never
// served. Without a shared tier every acquisition builds.
//
// acquire() returns a shared_ptr, so a pass keeps its analyses alive for
// its whole duration even if it mutates the graph.
//
// Remark emission: the P2 recursive-split degradation remarks derived from
// LocalPredicates are emitted by acquire(), once per distinct content per
// sink epoch (RemarkSink::epoch() — a fresh sink, or clearing the current
// one, starts a new epoch). Tying emission to acquisition instead of
// construction keeps the remark stream identical whether an analysis was
// built or served by the shared tier — a requirement of the batch driver's
// byte-identity guarantee, whose workers clear their sink at every job
// boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyses/predicates.hpp"
#include "ir/graph.hpp"
#include "ir/terms.hpp"

namespace parcm {

// Content hash over everything the cached analyses read: node kinds,
// regions, assignments (lhs + rhs), conditions, edges, and the
// region/statement nesting structure. Variable names are irrelevant to the
// analyses and excluded.
std::uint64_t structural_hash(const Graph& g);

// The hash plus the exact word stream it was computed from, so shared-cache
// lookups can reject 64-bit collisions with a full compare.
struct StructuralKey {
  std::uint64_t hash = 0;
  std::vector<std::uint64_t> words;

  bool operator==(const StructuralKey&) const = default;
};
StructuralKey structural_key(const Graph& g);

struct AnalysisBundle {
  TermTable terms;
  LocalPredicates preds;

  explicit AnalysisBundle(const Graph& g) : terms(g), preds(g, terms) {}
};

// Process-wide shared tier: lock-striped map from structural key to the
// immutable analysis bundle of that shape. A shard that reaches its entry
// cap is flushed wholesale; since every hit returns content-identical
// artifacts, eviction policy cannot influence results, only rebuild counts.
class SharedAnalysisCache {
 public:
  static constexpr std::size_t kShards = 64;
  static constexpr std::size_t kMaxEntriesPerShard = 512;

  std::shared_ptr<const AnalysisBundle> find_bundle(const StructuralKey& key);
  void put_bundle(const StructuralKey& key,
                  std::shared_ptr<const AnalysisBundle> bundle);

  void clear();
  std::size_t size() const;

 private:
  struct Entry {
    StructuralKey key;
    std::shared_ptr<const AnalysisBundle> bundle;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> entries;
  };

  // Returns the entry for key, creating it if absent; nullptr on a hash
  // collision with a different key (counted, never overwritten) or after
  // flushing a full shard. Caller must hold no shard lock.
  Entry* locate(Shard& shard, const StructuralKey& key, bool insert_missing);

  Shard shards_[kShards];
};

class AnalysisCache {
 public:
  // Returns the bundle for g's content: the shared tier's when one is
  // installed and holds the shape, else a fresh build (published to the
  // shared tier, if any). Emits the content's acquisition remarks the first
  // time it is acquired in the current sink epoch. Thread-safe.
  std::shared_ptr<const AnalysisBundle> acquire(const Graph& g);

 private:
  void maybe_emit(const Graph& g, const AnalysisBundle& bundle,
                  std::uint64_t hash);

  std::mutex mu_;
  // Content hashes whose remarks were emitted in sink epoch emit_epoch_.
  std::uint64_t emit_epoch_ = 0;
  std::unordered_set<std::uint64_t> emitted_;
  // Lock-free (epoch, hash) of the most recent emission decision; a hit
  // skips the mutex on repeat acquisitions of the same content.
  std::atomic<std::uint64_t> last_emit_epoch_{0};
  std::atomic<std::uint64_t> last_emit_hash_{0};
};

// The cache the motion passes use: the calling thread's override when one
// is installed (set_thread_analysis_cache), else the process-wide instance.
AnalysisCache& analysis_cache();

// Installs `c` as this thread's cache override (nullptr removes it);
// returns the previous override. Batch-driver workers each run their own
// cache, so remark deduplication follows the worker's own sink epochs and
// acquire() never contends across workers.
AnalysisCache* set_thread_analysis_cache(AnalysisCache* c);

// The process-wide shared tier instance (exists regardless of use).
SharedAnalysisCache& process_shared_analysis_cache();

// Installs `c` as the calling thread's shared tier (nullptr disables the
// tier, the default); returns the previous value. The batch driver points
// every worker at one instance; tests may install a private one.
SharedAnalysisCache* set_thread_shared_analysis_cache(SharedAnalysisCache* c);

}  // namespace parcm
