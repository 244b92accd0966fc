#include "svc/cache.hpp"

#include <algorithm>
#include <iterator>

#include "analysis/race/annotations.hpp"
#include "util/adaptive_lock.hpp"
#include "util/error.hpp"

namespace netpart::svc {

std::shared_future<ServiceReply> ready_reply(ServiceReply reply) {
  std::promise<ServiceReply> promise;
  promise.set_value(std::move(reply));
  return promise.get_future().share();
}

DecisionCache::DecisionCache(std::size_t capacity, int shards) {
  NP_REQUIRE(capacity >= 1, "cache capacity must be positive");
  NP_REQUIRE(shards >= 1, "cache needs at least one shard");
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(shards),
                                       capacity);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // npracer contract: everything behind a shard -- the eviction list
    // with its referenced flags, the key index, and the counters -- moves
    // only under that shard's mutex.
    [[maybe_unused]] Shard& shard = *shards_.back();
    NP_GUARDED_BY(&shard.lru, &shard.mutex, "svc.cache.shard.lru");
    NP_GUARDED_BY(&shard.stats, &shard.mutex, "svc.cache.shard.stats");
  }
  shard_capacity_ = (capacity + n - 1) / n;  // ceil: never below 1
}

DecisionCache::Shard& DecisionCache::shard_for(std::uint64_t key) const {
  // FNV output is well mixed; fold the high half in anyway so shard count
  // choices that divide 2^32 still spread.
  return *shards_[(key ^ (key >> 32)) % shards_.size()];
}

DecisionCache::Entry* DecisionCache::find_and_mark(Shard& shard,
                                                   std::uint64_t key) {
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    NP_WRITE(&shard.stats, "svc.cache.shard.stats");
    ++shard.stats.misses;
    return nullptr;
  }
  Entry& entry = *it->second;
  // Test before the store: a warm entry is already marked, and its cache
  // line stays shared between the threads that hit it.
  if (!entry.referenced) {
    NP_WRITE(&shard.lru, "svc.cache.shard.lru");
    entry.referenced = true;
  }
  NP_WRITE(&shard.stats, "svc.cache.shard.stats");
  ++shard.stats.hits;
  return &entry;
}

std::shared_ptr<const PartitionDecision> DecisionCache::lookup(
    std::uint64_t key) {
  Shard& shard = shard_for(key);
  AdaptiveLockGuard lock(shard.mutex);
  NP_LOCK_SCOPE(&shard.mutex, "svc.cache.shard.mutex");
  const Entry* entry = find_and_mark(shard, key);
  return entry == nullptr ? nullptr : entry->decision;
}

std::shared_future<ServiceReply> DecisionCache::lookup_reply(
    std::uint64_t key) {
  Shard& shard = shard_for(key);
  AdaptiveLockGuard lock(shard.mutex);
  NP_LOCK_SCOPE(&shard.mutex, "svc.cache.shard.mutex");
  Entry* entry = find_and_mark(shard, key);
  if (entry == nullptr) return {};
  if (!entry->reply.valid()) {
    entry->reply = ready_reply(ServiceReply{
        ServiceStatus::Ok, entry->decision, /*cache_hit=*/true, {}});
  }
  return entry->reply;
}

std::shared_ptr<const PartitionDecision> DecisionCache::peek(
    std::uint64_t key) const {
  Shard& shard = shard_for(key);
  AdaptiveLockGuard lock(shard.mutex);
  NP_LOCK_SCOPE(&shard.mutex, "svc.cache.shard.mutex");
  NP_READ(&shard.lru, "svc.cache.shard.lru");
  const auto it = shard.index.find(key);
  return it == shard.index.end() ? nullptr : it->second->decision;
}

void DecisionCache::insert(
    std::shared_ptr<const PartitionDecision> decision) {
  NP_ASSERT(decision != nullptr);
  const std::uint64_t key = decision->key;
  Shard& shard = shard_for(key);
  std::list<Entry> evicted;  // freed after the shard lock is released
  AdaptiveLockGuard lock(shard.mutex);
  NP_LOCK_SCOPE(&shard.mutex, "svc.cache.shard.mutex");
  NP_WRITE(&shard.lru, "svc.cache.shard.lru");
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    Entry& entry = *it->second;
    entry.decision = std::move(decision);
    entry.reply = {};
    entry.referenced = true;
    return;
  }
  if (shard.index.size() >= shard_capacity_) {
    // Second chance, before the push so the new decision is never the
    // victim.  Each move clears a flag, so the pass ends within one lap.
    while (shard.lru.back().referenced) {
      shard.lru.back().referenced = false;
      shard.lru.splice(shard.lru.begin(), shard.lru,
                       std::prev(shard.lru.end()));
    }
    shard.index.erase(shard.lru.back().key);
    evicted.splice(evicted.begin(), shard.lru, std::prev(shard.lru.end()));
    NP_WRITE(&shard.stats, "svc.cache.shard.stats");
    ++shard.stats.evictions;
  }
  shard.lru.push_front(Entry{key, std::move(decision), {}});
  shard.index[key] = shard.lru.begin();
}

std::size_t DecisionCache::invalidate_before(std::uint64_t epoch) {
  std::size_t purged = 0;
  std::list<Entry> stale;  // freed after the shard locks are released
  for (auto& shard : shards_) {
    AdaptiveLockGuard lock(shard->mutex);
    NP_LOCK_SCOPE(&shard->mutex, "svc.cache.shard.mutex");
    NP_WRITE(&shard->lru, "svc.cache.shard.lru");
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->decision->epoch < epoch) {
        shard->index.erase(it->key);
        const auto next = std::next(it);
        stale.splice(stale.end(), shard->lru, it);
        it = next;
        NP_WRITE(&shard->stats, "svc.cache.shard.stats");
        ++shard->stats.invalidated;
        ++purged;
      } else {
        ++it;
      }
    }
  }
  return purged;
}

std::size_t DecisionCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    NP_LOCK_SCOPE(&shard->mutex, "svc.cache.shard.mutex");
    NP_READ(&shard->lru, "svc.cache.shard.lru");
    total += shard->index.size();
  }
  return total;
}

std::vector<DecisionCache::ShardSnapshot> DecisionCache::shard_stats() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    NP_LOCK_SCOPE(&shard->mutex, "svc.cache.shard.mutex");
    NP_READ(&shard->lru, "svc.cache.shard.lru");
    NP_READ(&shard->stats, "svc.cache.shard.stats");
    snapshots.push_back(ShardSnapshot{shard->index.size(), shard->stats});
  }
  return snapshots;
}

DecisionCache::Stats DecisionCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    NP_LOCK_SCOPE(&shard->mutex, "svc.cache.shard.mutex");
    NP_READ(&shard->stats, "svc.cache.shard.stats");
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.invalidated += shard->stats.invalidated;
  }
  return total;
}

}  // namespace netpart::svc
