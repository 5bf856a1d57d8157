// Query cache.
//
// DFS path exploration re-checks many structurally identical prefixes; a
// query is identified by the sorted set of its assertions' 64-bit structural
// content hashes (computed once at node construction by the Context arena),
// making cache lookups O(n log n) in the number of assertions with no
// re-hashing of the DAG. Sat results keep their model so a hit can reseed
// execution without a solver round trip.
//
// QueryCache is the storage: sharded and thread-safe. Because content
// hashes are stable across contexts and across the intern toggle (see
// context.hpp), a cache may be shared by solvers over *different*
// contexts, and keys survive a context teardown — the property the
// persistent SolverStore (store.hpp) builds on. The Resolver (resolver.hpp)
// uses one QueryCache as its in-memory tier and keeps the per-worker hit
// and miss counters; the cache itself keeps process-wide atomic totals.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "smt/solver.hpp"

namespace binsym::smt {

class QueryCache {
 public:
  struct Entry {
    CheckResult result = CheckResult::kUnknown;
    Assignment model;  // valid when result == kSat
  };

  /// Canonical query key: the sorted, deduplicated content hashes of the
  /// assertions, with `true` assertions dropped (they cannot affect
  /// satisfiability and would fragment keys).
  using Key = std::vector<uint64_t>;

  /// `shards` is rounded up to a power of two; more shards mean less lock
  /// contention when many solvers share one cache.
  explicit QueryCache(size_t shards = 8);

  static Key key_for(std::span<const ExprRef> assertions);

  /// True (and fills *out) on a hit. Counts a hit or a miss.
  bool lookup(const Key& key, Entry* out);

  /// Insert (first writer wins on a racing duplicate).
  void insert(const Key& key, Entry entry);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;
  void clear();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::map<Key, Entry> entries;
  };

  Shard& shard_for(const Key& key);

  size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace binsym::smt
