// Sharded LRU cache of partition decisions.
//
// The service's hot path is a lookup; a global lock would serialise every
// worker and client thread on it.  The key space is already well mixed
// (FNV-1a), so keys map to shards by simple modulo and each shard carries
// its own mutex, LRU list, and counters.  Capacity is divided evenly
// across shards (an approximation of global LRU that never takes more
// than one lock per operation).
//
// Invalidation: the availability epoch is folded into every key, so stale
// entries can never be *hit* -- invalidate_before() exists to reclaim
// their memory the moment the service observes a bump, and to make
// staleness visible in the stats.
//
// Ready replies: a cache hit answers with a resolved future.  Each entry
// builds its own on its first lookup_reply() and every later hit copies
// it, so a warm hit allocates nothing.  The build is lazy because most
// cold decisions are never hit again before they are evicted or
// invalidated; building eagerly would tax every cold compute.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/partitioner.hpp"
#include "dp/partition_vector.hpp"
#include "topo/placement.hpp"

namespace netpart::svc {

/// The cached answer to one PartitionRequest.
struct PartitionDecision {
  std::uint64_t key = 0;    ///< the cache key this decision answers
  std::uint64_t epoch = 0;  ///< availability epoch it was computed under
  /// Always set by the cold path: the PDU assignment (Eq. 3 / the
  /// heuristic's choice).  PartitionVector has no empty state, so the
  /// default is a single zero-PDU placeholder rank.
  PartitionVector partition = PartitionVector(std::vector<std::int64_t>{0});
  /// Partition-kind decisions also carry the chosen configuration, its
  /// placement, and the estimator's objective; empty/zero for Repartition.
  ProcessorConfig config;
  Placement placement;
  double t_c_ms = 0.0;
  std::uint64_t evaluations = 0;
};

enum class ServiceStatus {
  Ok,
  /// Shed at admission: the request queue was full.  The client retries
  /// (with backoff) or falls back to a local decision.
  Overloaded,
  /// The cold path threw; `error` carries the message.  Failures are not
  /// cached -- a retry recomputes.
  Failed,
};

struct ServiceReply {
  ServiceStatus status = ServiceStatus::Failed;
  std::shared_ptr<const PartitionDecision> decision;  ///< set iff Ok
  bool cache_hit = false;
  std::string error;
};

/// A future that already holds `reply`.
std::shared_future<ServiceReply> ready_reply(ServiceReply reply);

class DecisionCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;    ///< capacity evictions (LRU tail)
    std::uint64_t invalidated = 0;  ///< entries purged by epoch bumps
  };

  /// `capacity` entries total, spread over `shards` independent shards.
  DecisionCache(std::size_t capacity, int shards);

  /// nullptr on miss; refreshes recency on hit.
  std::shared_ptr<const PartitionDecision> lookup(std::uint64_t key);

  /// lookup() answered as a ready `cache_hit` reply: the entry's own
  /// future, built on its first hit and shared by every later one.  An
  /// invalid (default) future on miss.  Counts and refreshes as lookup().
  std::shared_future<ServiceReply> lookup_reply(std::uint64_t key);

  /// Stats-neutral lookup: no hit/miss counting, no recency refresh.  The
  /// service's double-checked admission uses this to close the race between
  /// a lock-free miss and a concurrent worker completing the same key.
  std::shared_ptr<const PartitionDecision> peek(std::uint64_t key) const;

  /// Insert (or refresh) decision->key.  Evicts the shard's LRU tail when
  /// the shard is full.
  void insert(std::shared_ptr<const PartitionDecision> decision);

  /// Drop every entry computed under an epoch < `epoch`; returns how many.
  std::size_t invalidate_before(std::uint64_t epoch);

  std::size_t size() const;
  Stats stats() const;

  /// One shard's live occupancy and counters (index = shard number).
  struct ShardSnapshot {
    std::size_t size = 0;
    Stats stats;
  };

  /// Per-shard snapshots, in shard order.  Exposes skew that the summed
  /// stats() hides: a pathological key family landing on one shard shows
  /// up as one outsized size/eviction row here.
  std::vector<ShardSnapshot> shard_stats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Per-shard entry budget (capacity / shards, rounded up).
  std::size_t shard_capacity() const { return shard_capacity_; }

 private:
  struct Entry {
    std::uint64_t key;
    std::shared_ptr<const PartitionDecision> decision;
    /// Empty until the first lookup_reply(); reset when `decision` is.
    std::shared_future<ServiceReply> reply;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
    Stats stats;
  };

  Shard& shard_for(std::uint64_t key) const;
  /// Under `shard.mutex`: the entry for `key` moved to the LRU front, or
  /// nullptr.  Counts the hit or miss.
  static Entry* find_and_touch(Shard& shard, std::uint64_t key);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_capacity_;
};

}  // namespace netpart::svc
