// Fleet-wide telemetry aggregation (see DESIGN.md §13).
//
// Every FleetNode records into its own TelemetryRegistry -- the honest
// model of a real deployment, where no node can read another's metrics
// process.  FleetTelemetry is the collector a driver runs *after* (or
// between) sim runs: it snapshots every node's registry plus the Fleet's
// per-hop attribution registry and merges them into single deterministic
// artifacts:
//
//   * metric_sources() -- the registries obs::merged_metrics_text() turns
//     into one name-ordered dump; fleet-level rows render plain
//     (`latency fleet.request.route_us ...`), per-node rows
//     carry a `{node=N}` dimension.  Byte-identical for identical seeded
//     runs.
//   * lanes() -- one Chrome-trace lane per node (pid kLanePidBase + node
//     id) for obs::write_chrome_trace, so a forwarded request reads as
//     connected spans hopping across swimlanes.
//   * health() / health_text() -- per-node SLO summary: p50/p99 request
//     latency, forward ratio, cache warm fraction, dead-peer count.
//
// Loss surfacing: merging first folds the simulator's message-drop count
// and each registry's ring-buffer truncation count into counters
// (`sim.messages_dropped`, `obs.records.dropped`), tracked by delta so
// repeated exports never double-count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/chrome_trace.hpp"

namespace netpart::fleet {

/// One node's health/SLO summary (health(), rendered by health_text()).
struct NodeHealth {
  NodeId id = -1;
  bool alive = false;
  std::uint64_t requests = 0;   ///< submits that entered here
  std::uint64_t forwards = 0;   ///< requests this node relayed out
  std::uint64_t serves = 0;     ///< decisions produced here
  double p50_us = 0.0;          ///< entry-side request latency
  double p99_us = 0.0;
  double forward_ratio = 0.0;   ///< forwards / requests (0 when idle)
  double warm_fraction = 0.0;   ///< hits / (hits + misses) (0 when idle)
  int dead_peers = 0;           ///< peers this node's table calls Dead
};

class FleetTelemetry {
 public:
  explicit FleetTelemetry(Fleet& fleet) : fleet_(fleet) {}

  FleetTelemetry(const FleetTelemetry&) = delete;
  FleetTelemetry& operator=(const FleetTelemetry&) = delete;

  /// Fold current loss totals into counters (delta-tracked; safe to call
  /// any number of times).  The merge entry points call it themselves.
  void sync_loss_counters();

  /// One lane per node for the multi-lane Chrome export (lane i = node i,
  /// named to match make_fleet_network's cluster names).
  std::vector<obs::TraceLane> lanes() const;

  /// The registries to dump with obs::merged_metrics_text(), loss
  /// counters synced first: the Fleet's own (plain rows), then each
  /// node's (`{node=N}`).  The dump is deterministic for a deterministic
  /// run.  A caller with more registries to export appends them (fleetd
  /// adds the process-wide one).
  std::vector<obs::LabelledRegistry> metric_sources();

  std::vector<NodeHealth> health() const;
  /// One line per node: `node <id> alive=1 requests=57 p50_us=... ...`.
  std::string health_text() const;

 private:
  Fleet& fleet_;
  std::uint64_t synced_net_dropped_ = 0;
  std::vector<std::uint64_t> synced_record_dropped_;
};

}  // namespace netpart::fleet
