// One netpartd node of the fleet (see DESIGN.md §12).
//
// A FleetNode is the per-node slice of PR 2's partition service, rebuilt
// for the multi-node setting: its own sharded DecisionCache, its own view
// of the peers (PeerTable), its own HashRing built from that view, and its
// own availability epoch.  Nothing here is shared between nodes -- two
// nodes communicate only through MMPS messages the Fleet layer sends on
// the simulated network, so a partition or crash affects exactly what it
// would affect in a real deployment.
//
// Epochs: the node folds its *current* epoch into every cache key it
// computes, and adopting a newer epoch (observe_epoch) purges entries
// computed under older ones -- the same invalidate-by-construction
// contract the single-node service has, propagated by gossip instead of a
// shared feed.
//
// Hotness: the node counts cache hits per key while it serves as the
// key's owner; when a key's count crosses the hot threshold the Fleet
// layer pushes the decision to the key's replicas.  Counts reset on epoch
// adoption (stale heat is no reason to replicate stale decisions).
//
// Telemetry: each node owns a private TelemetryRegistry -- real fleets do
// not share a metrics process, and the merged export (fleet_telemetry.hpp)
// needs per-node lanes.  Counters are always on; span recording and trace
// id draws follow the constructor's `tracing`.  The node's span-id stream
// is seeded from (trace_seed, node id), so one fleet seed yields one
// deterministic fleet-wide id assignment.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fleet/hash_ring.hpp"
#include "fleet/peer_table.hpp"
#include "obs/telemetry.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"

namespace netpart::fleet {

struct NodeOptions {
  std::size_t cache_capacity = 512;
  int cache_shards = 8;
  /// Owner-side hits at which an entry is pushed to its replicas.
  int hot_threshold = 3;
  /// Virtual nodes per node on this node's HashRing.
  int vnodes = 16;
};

class FleetNode {
 public:
  /// `tracing` records spans (and draws trace ids) into the node's
  /// registry; counters stay on either way.  `trace_seed` seeds the node's
  /// deterministic span-id stream (stream = node id).
  FleetNode(NodeId id, const std::vector<NodeId>& nodes, SimTime now,
            const PeerTableOptions& peer_options,
            const NodeOptions& options, bool tracing = false,
            std::uint64_t trace_seed = 1);

  NodeId id() const { return id_; }
  svc::DecisionCache& cache() { return cache_; }
  const svc::DecisionCache& cache() const { return cache_; }
  PeerTable& peers() { return peers_; }
  const PeerTable& peers() const { return peers_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Adopt `epoch` when it is newer than the node's: bumps the local
  /// epoch, purges stale cache entries, resets hotness.  Returns true
  /// when adopted.
  bool observe_epoch(std::uint64_t epoch);

  /// This node's routing view, rebuilt lazily whenever its peer table
  /// records a health transition.
  const HashRing& ring();

  /// Owner-side hit count for one cache key, plus the epoch-independent
  /// routing key that placed it here (the audit needs the routing key to
  /// recompute the entry's replicas after a crash).
  struct HotStat {
    int count = 0;
    std::uint64_t routing_key = 0;
  };

  /// Record one owner-side hit on `cache_key`; returns true exactly when
  /// the count crosses the hot threshold (the caller replicates then,
  /// once).
  bool record_hit(std::uint64_t cache_key, std::uint64_t routing_key);

  /// (cache key, routing key) pairs this node has seen at least
  /// `hot_threshold` owner-side hits on under the current epoch (the set
  /// the failover audit checks replicas against).  Sorted by cache key.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hot_entries() const;

  /// This node's private telemetry (merged across the fleet by
  /// FleetTelemetry).  Span recording follows the constructor's `tracing`.
  obs::TelemetryRegistry& telemetry() { return *telemetry_; }
  const obs::TelemetryRegistry& telemetry() const { return *telemetry_; }
  bool tracing() const { return tracing_; }

  /// New root context for a request entering the fleet at this node.
  /// Invalid when tracing is off: the untraced path draws no ids, so
  /// enabling tracing never perturbs an untraced run's id-free exports.
  obs::TraceContext new_root();
  /// Child context under `parent` (a fresh root when `parent` is invalid
  /// -- a traced node never emits orphan ids).
  obs::TraceContext child_of(const obs::TraceContext& parent);

  /// Hot-path metric handles, resolved once at construction.
  struct Metrics {
    obs::Counter& requests;    ///< submits entering at this node
    obs::Counter& forwards;    ///< forwards this node relayed out
    obs::Counter& hits;        ///< cache hits served here
    obs::Counter& misses;      ///< cold computes served here
    obs::Counter& serves;      ///< decisions produced here (hit or cold)
    obs::LatencyHistogram& request_us;  ///< entry-side request latency
  };
  Metrics& metrics() { return metrics_; }

 private:
  NodeId id_;
  NodeOptions options_;
  bool tracing_;
  PeerTable peers_;
  svc::DecisionCache cache_;
  std::uint64_t epoch_ = 1;
  std::unordered_map<std::uint64_t, HotStat> hits_;
  HashRing ring_;
  std::uint64_t ring_version_ = 0;  ///< peers_.version() the ring matches
  std::unique_ptr<obs::TelemetryRegistry> telemetry_;
  Metrics metrics_;
};

}  // namespace netpart::fleet
