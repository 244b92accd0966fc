// The netpartd fleet: N partition-service nodes over MMPS (DESIGN.md §12).
//
// One Fleet owns one simulated network with one FleetNode per cluster
// (the node process runs on processor {c, 0}, the same host the
// fault-tolerant availability protocol uses as cluster manager).  Every
// cross-node interaction is an MMPS message on the simulated network, so
// crashes, slowdowns, and partitions injected by the PR 1 FaultInjector
// hit the fleet's control plane exactly as they hit application traffic.
//
// Request path (submit):
//   entry node --ring--> owner.  If entry IS the owner (or a replica with
//   the entry warm), it serves locally; otherwise it forwards the request
//   and waits on a per-forward reply tag with an RTO.  A timeout reroutes
//   to the next replica in ring order (a failover); when every candidate
//   is exhausted the request fails.  An owner that cannot decode a
//   forward's request answers it with a failure, so long as the frame's
//   header still names the relay.
//
// Epoch path (announce_epoch + gossip rounds):
//   an epoch enters at one node and propagates ring-wise -- each alive
//   node pushes its newest epoch to its ring successor once per gossip
//   round, so an epoch observed anywhere reaches every alive node within
//   N-1 rounds (heartbeats piggyback epochs too, which only accelerates).
//
// Replication path:
//   the owner counts hits per key; at the hot threshold it pushes the
//   decision to the key's R-1 replicas, so a crash mid-epoch degrades to
//   a cache-warm failover instead of a cold recompute.
//
// Tracing (DESIGN.md §13): with FleetOptions::tracing on (or process-wide
// tracing enabled), every submit opens a `fleet.request` root span at its
// entry node; each forward attempt is a `fleet.forward` child whose
// context rides the wire, the owner's `fleet.serve` is a true child of
// that forward, and replication pushes materialise `fleet.replicate`
// spans on the replicas -- one connected trace per request, across nodes.
// Successful requests also feed the fleet-level per-hop attribution
// histograms (`fleet.request.route_us` / `forward_us` / `compute_us` /
// `reply_us` / `total_us`), which are recorded whether or not span
// tracing is on: attribution is metrics, not trace payload.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fleet/node.hpp"
#include "fleet/wire.hpp"
#include "mmps/system.hpp"
#include "obs/telemetry.hpp"
#include "sim/netsim.hpp"

namespace netpart::fleet {

/// MMPS control tags, placed below the manager protocol's -101..-104 so
/// the two control planes can share a System without tag collisions.
/// Forward replies use positive per-forward tags from a counter.
inline constexpr std::int32_t kHeartbeatTag = -201;
inline constexpr std::int32_t kGossipTag = -202;
inline constexpr std::int32_t kForwardTag = -203;
inline constexpr std::int32_t kReplicateTag = -204;

struct FleetOptions {
  /// Copies of each entry: the owner plus replication-1 ring successors.
  int replication = 2;
  NodeOptions node;
  PeerTableOptions peer;
  /// Period of the all-pairs heartbeat loop.
  SimTime heartbeat_period = SimTime::millis(100);
  /// Period of the ring-wise epoch gossip loop.
  SimTime gossip_period = SimTime::millis(50);
  /// CPU cost a node charges to serve a cached decision.
  SimTime hit_service = SimTime::micros(80);
  /// CPU cost a node charges to compute a decision cold.
  SimTime cold_service = SimTime::millis(2);
  /// RTO on a forwarded request before rerouting to the next replica.
  SimTime forward_timeout = SimTime::millis(250);
  /// Record fleet spans into the per-node registries.  OR'd with
  /// obs::TelemetryRegistry::global_enabled() at construction, so a
  /// process that opted into tracing gets fleet traces without extra
  /// plumbing.
  bool tracing = false;
  /// Seed of the fleet's deterministic trace-id streams (per-node stream
  /// = node id); same seed + same workload = byte-identical exports.
  std::uint64_t trace_seed = 1;
};

struct FleetStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t hits = 0;           ///< cache hits (any node)
  std::uint64_t misses = 0;         ///< cache misses -> cold computes
  std::uint64_t forwards = 0;       ///< requests relayed to a remote owner
  std::uint64_t local_serves = 0;   ///< served by the entry node itself
  std::uint64_t replica_serves = 0; ///< entry served from a replicated copy
  std::uint64_t failovers = 0;      ///< forward timeouts rerouted
  std::uint64_t replications_pushed = 0;  ///< hot pushes sent (per replica)
  std::uint64_t replica_inserts = 0;      ///< pushes accepted and cached
  std::uint64_t gossip_rounds = 0;
  std::uint64_t gossip_messages = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t epoch_adoptions = 0;      ///< observe_epoch() adoptions
};

/// The outcome of one submitted request, delivered to the submit callback
/// at the simulated time the answer is in the client's hands.
struct FleetReply {
  bool ok = false;
  bool cache_hit = false;
  NodeId served_by = -1;
  int failovers = 0;
  SimTime latency = SimTime::zero();
  std::shared_ptr<const svc::PartitionDecision> decision;
};

/// A homogeneous fleet network: `nodes` single-segment sparc2 clusters of
/// `processors_per_cluster` machines each, joined by a router.  Cluster c
/// hosts fleet node c on processor {c, 0}.
Network make_fleet_network(int nodes, int processors_per_cluster = 2);

class Fleet {
 public:
  /// The cold path: computes the decision for a request the cache cannot
  /// answer.  Runs at the owning node; its CPU cost is modelled by
  /// FleetOptions::cold_service, not measured.
  using ColdPath = std::function<svc::PartitionDecision(
      const svc::PartitionRequest&)>;
  using ReplyCallback = std::function<void(const FleetReply&)>;

  /// One FleetNode per cluster of `net.network()`.  The Fleet posts
  /// receive handlers on construction-independent start(); it must
  /// outlive the engine run.
  Fleet(sim::NetSim& net, FleetOptions options, ColdPath cold_path);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Arm the control plane: per-node receive loops plus the periodic
  /// heartbeat and gossip loops, first firing one period from now.
  void start();
  /// Stop scheduling new periodic rounds (already-scheduled events drain).
  void stop();

  /// Submit a request at `entry`; `done` fires once, at the simulated
  /// completion time, with the outcome.
  void submit(const svc::PartitionRequest& request, NodeId entry,
              ReplyCallback done);

  /// A new availability epoch enters the fleet at node `at` (the node
  /// that observed the feed bump); gossip spreads it from there.
  void announce_epoch(NodeId at, std::uint64_t epoch);

  /// Feed the availability token ring's findings into every live peer
  /// table (ProtocolResult::dead from mmps/manager_protocol).
  void report_dead_peers(const std::vector<ClusterId>& dead);

  /// Failover-warmth audit: the fraction of `dead`'s hot entries already
  /// present on the first surviving replica of each entry's key.  1.0
  /// when the dead node had no hot entries.
  double warm_fraction_for(NodeId dead);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  std::vector<NodeId> node_ids() const;
  FleetNode& node(NodeId id);
  bool node_alive(NodeId id) const;

  std::uint64_t signature() const { return signature_; }
  std::uint64_t routing_key(const svc::PartitionRequest& request) const;
  const FleetStats& stats() const { return stats_; }
  const FleetOptions& options() const { return options_; }
  sim::NetSim& net() { return net_; }
  const sim::NetSim& net() const { return net_; }
  mmps::System& mmps() { return mmps_; }

  /// Fleet-level registry holding the per-hop `fleet.request.*`
  /// attribution histograms (per-node spans/counters live on each
  /// FleetNode's registry; FleetTelemetry merges both).
  obs::TelemetryRegistry& telemetry() { return *telemetry_; }
  const obs::TelemetryRegistry& telemetry() const { return *telemetry_; }

 private:
  /// One in-flight submit: the candidate targets in ring order and the
  /// cursor over them.  Shared by the chained engine events.
  struct Attempt {
    svc::PartitionRequest request;
    std::uint64_t routing_key = 0;
    NodeId entry = -1;
    std::vector<NodeId> targets;
    std::size_t next_target = 0;
    int failovers = 0;
    SimTime started = SimTime::zero();
    /// Root context of this request's trace (invalid when tracing is off).
    obs::TraceContext trace;
    /// Send time of the most recent forward (per-hop route attribution).
    SimTime forward_sent = SimTime::zero();
    ReplyCallback done;
  };
  using AttemptPtr = std::shared_ptr<Attempt>;

  /// A locally served request: the answer plus the host-reserved time at
  /// which it is ready.
  struct Served {
    std::shared_ptr<const svc::PartitionDecision> decision;
    bool hit = false;
    SimTime ready_at = SimTime::zero();
    /// The serving node's `fleet.serve` span context (replication pushes
    /// parent under it).
    obs::TraceContext ctx;
  };

  static ProcessorRef host_of(NodeId id) { return ProcessorRef{id, 0}; }

  /// Serve at node `at` (cache lookup, cold path on miss, CPU charge);
  /// owner_side enables hit counting and hot replication.  The serve span
  /// is recorded as a child of `parent` (the request root for local
  /// serves, the relayed forward context for remote ones).
  Served serve_at(NodeId at, const svc::PartitionRequest& request,
                  std::uint64_t routing_key, bool owner_side,
                  const obs::TraceContext& parent);

  /// Advance `a` to its next target: serve locally, forward, or fail.
  void try_next(const AttemptPtr& a);
  void forward_to(const AttemptPtr& a, NodeId target);
  /// The forward of `a` to `target` failed (RTO expired, or its reply
  /// did not decode): count a failover and try the next replica.
  void fail_over(const AttemptPtr& a, NodeId target,
                 const obs::TraceContext& fwd_ctx, SimTime sent,
                 const char* outcome);
  void finish(const AttemptPtr& a, bool ok, bool hit, NodeId served_by,
              std::shared_ptr<const svc::PartitionDecision> decision);

  /// Push `decision` (hot at `owner` under `routing_key`) to its
  /// replicas, parented under the owner's serve span `parent`.
  void replicate(NodeId owner, std::uint64_t routing_key,
                 const std::shared_ptr<const svc::PartitionDecision>& d,
                 const obs::TraceContext& parent);

  /// Record a sim-clock span into node `at`'s registry (no-op when that
  /// registry is not recording).
  void record_node_span(NodeId at, const char* name,
                        const obs::TraceContext& ctx, SimTime start,
                        SimTime end, obs::AttrList attrs);

  /// Re-arming receive loops for the four control tags at node `n`.
  void arm_heartbeat(NodeId n);
  void arm_gossip(NodeId n);
  void arm_forward(NodeId n);
  /// Answer a forward frame node `n` could not decode: a failure reply to
  /// the relay its header names, or nothing when the header is bad too.
  void fail_bad_forward(NodeId n, const std::vector<std::byte>& bytes);
  void arm_replicate(NodeId n);

  void heartbeat_round();
  void gossip_round();
  void observe_announce(NodeId at, const EpochAnnounce& announce);

  sim::NetSim& net_;
  mmps::System mmps_;
  FleetOptions options_;
  ColdPath cold_path_;
  std::uint64_t signature_ = 0;
  std::vector<std::unique_ptr<FleetNode>> nodes_;  // by NodeId == index
  FleetStats stats_;
  bool running_ = false;
  bool armed_ = false;  ///< receive loops are self-re-arming: post once
  std::int32_t next_reply_tag_ = 1;

  // Global counters (resolved once; relaxed adds afterwards).
  obs::Counter& ctr_forwards_;
  obs::Counter& ctr_failovers_;
  obs::Counter& ctr_gossip_rounds_;
  obs::Counter& ctr_replications_;

  // Fleet-level registry + per-hop attribution histograms (declared after
  // the registry they borrow from).
  std::unique_ptr<obs::TelemetryRegistry> telemetry_;
  obs::LatencyHistogram& hop_route_us_;
  obs::LatencyHistogram& hop_forward_us_;
  obs::LatencyHistogram& hop_compute_us_;
  obs::LatencyHistogram& hop_reply_us_;
  obs::LatencyHistogram& hop_total_us_;
};

}  // namespace netpart::fleet
