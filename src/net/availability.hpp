// Cluster managers and the cooperative availability protocol.
//
// The paper assumes processors are shared: each cluster has a manager that
// monitors per-processor load and applies a simple threshold policy --
// every processor below the threshold counts as available and equal in
// power.  Before partitioning, a cooperative algorithm run by the managers
// gathers the per-cluster available counts N_i.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace netpart {

/// Threshold availability policy.
struct AvailabilityPolicy {
  /// Processors with load strictly below this threshold are available.
  double load_threshold = 0.10;
};

/// One cluster's manager: applies the threshold policy to its processors.
class ClusterManager {
 public:
  ClusterManager(ClusterId cluster, AvailabilityPolicy policy)
      : cluster_(cluster), policy_(policy) {}

  ClusterId cluster() const { return cluster_; }

  /// Count of available processors under the threshold policy.
  int available(const Network& net) const;

  /// Indices of the available processors, in cluster order (the placement
  /// layer assigns tasks to the first P of these).
  std::vector<ProcessorIndex> available_indices(const Network& net) const;

 private:
  ClusterId cluster_;
  AvailabilityPolicy policy_;
};

/// Result of the cooperative availability-gathering round.
struct AvailabilitySnapshot {
  /// N_i: available processors per cluster, indexed by ClusterId.
  std::vector<int> available;

  int total() const;
};

/// Run the cooperative protocol: every manager reports its count, one
/// round-robin exchange.  (On a real system this is a message round among
/// managers; with the in-process model it reduces to querying each one.)
AvailabilitySnapshot gather_availability(
    const Network& net, const std::vector<ClusterManager>& managers);

/// Build one manager per cluster with a common policy.
std::vector<ClusterManager> make_managers(const Network& net,
                                          AvailabilityPolicy policy);

/// One availability-churn event: at `at`, `ref` is withdrawn from
/// (revoke) or offered back to (restore) the pool of partitionable
/// processors.  The fault-injection layer (sim/faults.hpp) produces these;
/// a crashed host is a permanent revocation.
struct ChurnEvent {
  SimTime at;
  ProcessorRef ref;
  enum class Kind { Revoke, Restore } kind = Kind::Revoke;
};

/// Apply every churn event with at <= upto to the network itself: revoked
/// processors are marked fully loaded (load 1.0) so the threshold policy --
/// and therefore available_indices() and any placement built from it --
/// excludes them; restored processors return to load 0.  Events are applied
/// in time order (ties: later event in the list wins).
void apply_churn_to_network(Network& net,
                            const std::vector<ChurnEvent>& events,
                            SimTime upto);

/// Snapshot-level variant: subtract each processor whose final state by
/// `upto` is revoked from its cluster's count (clamped at zero).  Assumes
/// the snapshot counted those processors as available.
AvailabilitySnapshot apply_churn(const Network& net,
                                 AvailabilitySnapshot snapshot,
                                 const std::vector<ChurnEvent>& events,
                                 SimTime upto);

/// Background-load generator: assigns each processor a load drawn from a
/// bounded exponential, modelling light sharing by other users.
void apply_random_load(Network& net, Rng& rng, double mean_load);

/// Thread-safe, versioned availability source for long-lived consumers.
///
/// A one-shot partitioner gathers a snapshot and dies; a partition *service*
/// outlives many availability changes and must know when cached decisions
/// went stale.  The feed pairs the current snapshot with a monotonically
/// increasing epoch that bumps exactly when the per-cluster counts change,
/// so a decision computed under epoch e is valid iff the feed still reports
/// e.  The epoch participates in the service's cache keys; a bump both
/// prevents stale hits and triggers eviction of older entries.
class AvailabilityFeed {
 public:
  /// Starts at epoch 1 with the given counts.
  explicit AvailabilityFeed(AvailabilitySnapshot initial);

  /// Convenience: gather from the managers, start at epoch 1.
  AvailabilityFeed(const Network& net,
                   const std::vector<ClusterManager>& managers);

  /// Lock-free: one acquire load, no copy.  A consumer that keys on it and
  /// then needs the snapshot must call read() and re-key if the epoch moved
  /// in between, so that key, epoch and snapshot come from one read.
  std::uint64_t epoch() const;

  /// The snapshot and the epoch it belongs to, read atomically.
  std::pair<AvailabilitySnapshot, std::uint64_t> read() const;

  /// Replace the snapshot; bumps the epoch only when the counts actually
  /// differ (an identical re-gather keeps caches warm).  Returns the epoch
  /// in force after the call.
  std::uint64_t update(AvailabilitySnapshot next);

 private:
  mutable std::mutex mutex_;
  AvailabilitySnapshot current_;
  /// Stored (release) only under mutex_, beside current_, so read() sees
  /// the pair together while epoch() reads it without the lock.
  std::atomic<std::uint64_t> epoch_{1};
};

}  // namespace netpart
