#include "smt/cache.hpp"

#include <algorithm>

namespace binsym::smt {

namespace {

size_t round_up_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

QueryCache::QueryCache(size_t shards)
    : shard_count_(round_up_pow2(std::max<size_t>(shards, 1))),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

QueryCache::Key QueryCache::key_for(std::span<const ExprRef> assertions) {
  Key key;
  key.reserve(assertions.size());
  for (ExprRef assertion : assertions) {
    if (assertion->is_true()) continue;
    key.push_back(assertion->hash);
  }
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

QueryCache::Shard& QueryCache::shard_for(const Key& key) {
  // FNV-1a over the hash sequence; shard count is a power of two.
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t hash : key) h = (h ^ hash) * 0x100000001b3ull;
  return shards_[h & (shard_count_ - 1)];
}

bool QueryCache::lookup(const Key& key, Entry* out) {
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto it = shard.entries.find(key); it != shard.entries.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (out) *out = it->second;
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void QueryCache::insert(const Key& key, Entry entry) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.entries.emplace(key, std::move(entry));
}

size_t QueryCache::size() const {
  size_t total = 0;
  for (size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mutex);
    total += shards_[i].entries.size();
  }
  return total;
}

void QueryCache::clear() {
  for (size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mutex);
    shards_[i].entries.clear();
  }
}

}  // namespace binsym::smt
