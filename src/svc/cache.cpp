#include "svc/cache.hpp"

#include <algorithm>
#include <utility>

#include "analysis/race/annotations.hpp"
#include "util/adaptive_lock.hpp"
#include "util/error.hpp"

namespace netpart::svc {

std::shared_future<ServiceReply> ready_reply(ServiceReply reply) {
  std::promise<ServiceReply> promise;
  promise.set_value(std::move(reply));
  return promise.get_future().share();
}

DecisionCache::Shard::Shard(std::size_t capacity) : index(capacity) {
  ring.reserve(capacity);
}

DecisionCache::DecisionCache(std::size_t capacity, int shards) {
  NP_REQUIRE(capacity >= 1, "cache capacity must be positive");
  NP_REQUIRE(shards >= 1, "cache needs at least one shard");
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(shards),
                                       capacity);
  // ceil without overflow: never below 1, even for a capacity near
  // SIZE_MAX (which the index then rejects as too large).
  shard_capacity_ = capacity / n + (capacity % n != 0 ? 1 : 0);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_capacity_));
    // npracer contract: everything behind a shard -- the ring with its
    // hand and referenced flags, the key index, and the counters -- moves
    // only under that shard's mutex.
    [[maybe_unused]] Shard& shard = *shards_.back();
    NP_GUARDED_BY(&shard.ring, &shard.mutex, "svc.cache.shard.ring");
    NP_GUARDED_BY(&shard.index, &shard.mutex, "svc.cache.shard.index");
    NP_GUARDED_BY(&shard.stats, &shard.mutex, "svc.cache.shard.stats");
  }
}

DecisionCache::Shard& DecisionCache::shard_for(std::uint64_t key) const {
  // FNV output is well mixed; fold the high half in anyway so shard count
  // choices that divide 2^32 still spread.
  return *shards_[(key ^ (key >> 32)) % shards_.size()];
}

DecisionCache::Entry* DecisionCache::find_and_mark(Shard& shard,
                                                   std::uint64_t key) {
  NP_READ(&shard.index, "svc.cache.shard.index");
  const std::uint32_t* at = shard.index.find(key);
  if (at == nullptr) {
    NP_WRITE(&shard.stats, "svc.cache.shard.stats");
    ++shard.stats.misses;
    return nullptr;
  }
  Entry& entry = shard.ring[*at];
  // Test before the store: a warm entry is already marked, and its cache
  // line stays shared between the threads that hit it.
  if (!entry.referenced) {
    NP_WRITE(&shard.ring, "svc.cache.shard.ring");
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
    NP_WRITE(&shard.ring, "svc.cache.shard.ring");
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
  NP_READ(&shard.index, "svc.cache.shard.index");
  const std::uint32_t* at = shard.index.find(key);
  if (at == nullptr) return nullptr;
  NP_READ(&shard.ring, "svc.cache.shard.ring");
  return shard.ring[*at].decision;
}

void DecisionCache::insert(
    std::shared_ptr<const PartitionDecision> decision) {
  NP_ASSERT(decision != nullptr);
  const std::uint64_t key = decision->key;
  Shard& shard = shard_for(key);
  Entry released;  // a victim's or a refresh's old state, freed after the lock
  AdaptiveLockGuard lock(shard.mutex);
  NP_LOCK_SCOPE(&shard.mutex, "svc.cache.shard.mutex");
  NP_WRITE(&shard.ring, "svc.cache.shard.ring");
  NP_WRITE(&shard.index, "svc.cache.shard.index");
  std::vector<Entry>& ring = shard.ring;
  if (const std::uint32_t* at = shard.index.find(key)) {
    Entry& entry = ring[*at];
    released.decision = std::exchange(entry.decision, std::move(decision));
    released.reply = std::exchange(entry.reply, {});
    entry.referenced = true;
    return;
  }
  if (ring.size() < shard_capacity_) {  // filling: the hand stays at 0
    shard.index.insert(key, static_cast<std::uint32_t>(ring.size()));
    ring.push_back(Entry{key, std::move(decision), {}, false});
    return;
  }
  // Second chance, before the new entry goes in so it is never the victim.
  // Each step past a referenced entry clears its flag, so the hand stops
  // within one lap.
  while (ring[shard.hand].referenced) {
    ring[shard.hand].referenced = false;
    shard.hand = (shard.hand + 1) % ring.size();
  }
  Entry& victim = ring[shard.hand];
  shard.index.extract(victim.key);
  shard.index.insert(key, static_cast<std::uint32_t>(shard.hand));
  released = std::exchange(victim, Entry{key, std::move(decision), {}, false});
  shard.hand = (shard.hand + 1) % ring.size();
  NP_WRITE(&shard.stats, "svc.cache.shard.stats");
  ++shard.stats.evictions;
}

std::size_t DecisionCache::invalidate_before(std::uint64_t epoch) {
  std::size_t purged = 0;
  // Stale entries move here and are freed after each shard's lock; one
  // shard never holds more than shard_capacity_ of them.
  std::vector<Entry> stale;
  stale.reserve(shard_capacity_);
  for (auto& shard : shards_) {
    {
      AdaptiveLockGuard lock(shard->mutex);
      NP_LOCK_SCOPE(&shard->mutex, "svc.cache.shard.mutex");
      NP_WRITE(&shard->ring, "svc.cache.shard.ring");
      NP_WRITE(&shard->index, "svc.cache.shard.index");
      std::vector<Entry>& ring = shard->ring;
      // Oldest first from position 0, then the survivors slide down over
      // the stale entries in that order.
      std::rotate(ring.begin(),
                  ring.begin() + static_cast<std::ptrdiff_t>(shard->hand),
                  ring.end());
      shard->hand = 0;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < ring.size(); ++i) {
        if (ring[i].decision->epoch < epoch) {
          stale.push_back(std::move(ring[i]));
        } else {
          if (kept != i) ring[kept] = std::move(ring[i]);
          ++kept;
        }
      }
      ring.erase(ring.begin() + static_cast<std::ptrdiff_t>(kept),
                 ring.end());
      shard->index.clear();
      for (std::size_t i = 0; i < kept; ++i) {
        shard->index.insert(ring[i].key, static_cast<std::uint32_t>(i));
      }
      NP_WRITE(&shard->stats, "svc.cache.shard.stats");
      shard->stats.invalidated += stale.size();
      purged += stale.size();
    }
    stale.clear();
  }
  return purged;
}

std::size_t DecisionCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    NP_LOCK_SCOPE(&shard->mutex, "svc.cache.shard.mutex");
    NP_READ(&shard->ring, "svc.cache.shard.ring");
    total += shard->ring.size();
  }
  return total;
}

std::vector<DecisionCache::ShardSnapshot> DecisionCache::shard_stats() const {
  std::vector<ShardSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    NP_LOCK_SCOPE(&shard->mutex, "svc.cache.shard.mutex");
    NP_READ(&shard->ring, "svc.cache.shard.ring");
    NP_READ(&shard->stats, "svc.cache.shard.stats");
    snapshots.push_back(ShardSnapshot{shard->ring.size(), shard->stats});
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
