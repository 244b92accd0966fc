#include "fleet/fleet.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "net/builder.hpp"
#include "net/presets.hpp"
#include "util/error.hpp"

namespace netpart::fleet {

namespace {

/// Decode a frame received at `node`.  One that fails to decode is counted
/// in the node's `fleet.bad_frames` and dropped; the counter is created on
/// first use, so a clean run's metrics carry no such row.
template <typename Decode>
auto decode_or_count(FleetNode& node, Decode decode,
                     const std::vector<std::byte>& bytes)
    -> std::optional<decltype(decode(bytes))> {
  try {
    return decode(bytes);
  } catch (const InvalidArgument&) {
    node.telemetry().counter("fleet.bad_frames").add();
    return std::nullopt;
  }
}

}  // namespace

Network make_fleet_network(int nodes, int processors_per_cluster) {
  NP_REQUIRE(nodes >= 1, "fleet needs at least one node");
  NP_REQUIRE(processors_per_cluster >= 1,
             "fleet clusters need at least one processor");
  NetworkBuilder builder;
  for (int c = 0; c < nodes; ++c) {
    builder.add_cluster("node" + std::to_string(c), presets::sparc2(),
                        processors_per_cluster);
  }
  return builder.build();
}

Fleet::Fleet(sim::NetSim& net, FleetOptions options, ColdPath cold_path)
    : net_(net),
      mmps_(net),
      options_(std::move(options)),
      cold_path_(std::move(cold_path)),
      signature_(svc::network_signature(net.network())),
      ctr_forwards_(obs::TelemetryRegistry::global().counter("fleet.forwards")),
      ctr_failovers_(
          obs::TelemetryRegistry::global().counter("fleet.failovers")),
      ctr_gossip_rounds_(
          obs::TelemetryRegistry::global().counter("fleet.gossip_rounds")),
      ctr_replications_(
          obs::TelemetryRegistry::global().counter("fleet.replications")),
      telemetry_(std::make_unique<obs::TelemetryRegistry>(
          /*enabled=*/false)),  // histograms only; no spans at fleet level
      hop_route_us_(telemetry_->latency("fleet.request.route_us")),
      hop_forward_us_(telemetry_->latency("fleet.request.forward_us")),
      hop_compute_us_(telemetry_->latency("fleet.request.compute_us")),
      hop_reply_us_(telemetry_->latency("fleet.request.reply_us")),
      hop_total_us_(telemetry_->latency("fleet.request.total_us")) {
  NP_REQUIRE(options_.replication >= 1, "replication factor must be >= 1");
  NP_REQUIRE(cold_path_ != nullptr, "fleet needs a cold path");
  const int clusters = net_.network().num_clusters();
  NP_REQUIRE(options_.replication <= clusters,
             "replication factor exceeds fleet size");
  // A process that opted into tracing gets fleet traces too; the per-node
  // registries are the recording surface either way.
  options_.tracing =
      options_.tracing || obs::TelemetryRegistry::global_enabled();
  std::vector<NodeId> ids;
  ids.reserve(clusters);
  for (int c = 0; c < clusters; ++c) ids.push_back(c);
  const SimTime now = net_.engine().now();
  nodes_.reserve(clusters);
  for (NodeId id : ids) {
    nodes_.push_back(std::make_unique<FleetNode>(
        id, ids, now, options_.peer, options_.node, options_.tracing,
        options_.trace_seed));
  }
}

std::vector<NodeId> Fleet::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& n : nodes_) ids.push_back(n->id());
  return ids;
}

FleetNode& Fleet::node(NodeId id) {
  NP_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
             "unknown fleet node id");
  return *nodes_[id];
}

bool Fleet::node_alive(NodeId id) const {
  return net_.host(host_of(id)).alive();
}

std::uint64_t Fleet::routing_key(const svc::PartitionRequest& request) const {
  // Epoch 0: routing must be stable across epoch bumps (an epoch changes
  // what is cached, not where a key lives).
  return svc::request_key(request, signature_, /*epoch=*/0);
}

// --- control-plane loops ---------------------------------------------------

void Fleet::start() {
  if (running_) return;
  running_ = true;
  if (!armed_) {
    armed_ = true;
    for (const auto& n : nodes_) {
      arm_heartbeat(n->id());
      arm_gossip(n->id());
      arm_forward(n->id());
      arm_replicate(n->id());
    }
  }
  net_.engine().schedule_after(options_.heartbeat_period,
                               [this] { heartbeat_round(); });
  net_.engine().schedule_after(options_.gossip_period,
                               [this] { gossip_round(); });
}

void Fleet::stop() { running_ = false; }

void Fleet::heartbeat_round() {
  if (!running_) return;
  const SimTime now = net_.engine().now();
  for (const auto& n : nodes_) {
    if (!node_alive(n->id())) continue;
    n->peers().tick(now);
    for (const auto& peer : nodes_) {
      if (peer->id() == n->id()) continue;
      if (n->peers().health(peer->id()) == PeerHealth::Dead) continue;
      mmps_.send(host_of(n->id()), host_of(peer->id()), kHeartbeatTag,
                 encode_announce({n->id(), n->epoch()}));
      ++stats_.heartbeats;
    }
  }
  net_.engine().schedule_after(options_.heartbeat_period,
                               [this] { heartbeat_round(); });
}

void Fleet::gossip_round() {
  if (!running_) return;
  ++stats_.gossip_rounds;
  ctr_gossip_rounds_.add();
  for (const auto& n : nodes_) {
    if (!node_alive(n->id())) continue;
    // Ring successor by ascending node id among this node's live view --
    // the same successor rule the availability token ring uses, so the
    // epoch walks the same ring the paper's protocol does.
    const std::vector<NodeId> members = n->peers().ring_members();
    if (members.size() < 2) continue;
    const auto it =
        std::upper_bound(members.begin(), members.end(), n->id());
    const NodeId successor = it == members.end() ? members.front() : *it;
    mmps_.send(host_of(n->id()), host_of(successor), kGossipTag,
               encode_announce({n->id(), n->epoch()}));
    ++stats_.gossip_messages;
  }
  net_.engine().schedule_after(options_.gossip_period,
                               [this] { gossip_round(); });
}

void Fleet::observe_announce(NodeId at, const EpochAnnounce& announce) {
  FleetNode& n = node(at);
  n.peers().record_heartbeat(announce.from, net_.engine().now());
  if (n.observe_epoch(announce.epoch)) ++stats_.epoch_adoptions;
}

void Fleet::arm_heartbeat(NodeId n) {
  mmps_.recv_any(host_of(n), kHeartbeatTag, [this, n](mmps::Message msg) {
    arm_heartbeat(n);
    if (const auto announce =
            decode_or_count(node(n), decode_announce, msg.payload)) {
      observe_announce(n, *announce);
    }
  });
}

void Fleet::arm_gossip(NodeId n) {
  mmps_.recv_any(host_of(n), kGossipTag, [this, n](mmps::Message msg) {
    arm_gossip(n);
    if (const auto announce =
            decode_or_count(node(n), decode_announce, msg.payload)) {
      observe_announce(n, *announce);
    }
  });
}

void Fleet::arm_replicate(NodeId n) {
  mmps_.recv_any(host_of(n), kReplicateTag, [this, n](mmps::Message msg) {
    arm_replicate(n);
    std::optional<ReplicateEnvelope> envelope =
        decode_or_count(node(n), decode_replicate, msg.payload);
    if (!envelope) return;
    // A push computed under an older epoch than this node's is already
    // stale; dropping it here is the same rule invalidate_before applies.
    const bool accepted = envelope->decision->epoch >= node(n).epoch();
    // Materialise the carried context as a point span on the replica's
    // lane: the owner minted this identity when it pushed, so the merged
    // trace shows serve -> replicate edges across nodes.
    const SimTime now = net_.engine().now();
    record_node_span(n, "fleet.replicate", envelope->trace, now, now,
                     {{"accepted", JsonValue(accepted)}});
    if (!accepted) return;
    node(n).cache().insert(std::move(envelope->decision));
    ++stats_.replica_inserts;
  });
}

void Fleet::arm_forward(NodeId n) {
  mmps_.recv_any(host_of(n), kForwardTag, [this, n](mmps::Message msg) {
    arm_forward(n);
    const std::optional<ForwardEnvelope> envelope =
        decode_or_count(node(n), decode_forward, msg.payload);
    if (!envelope) {
      fail_bad_forward(n, msg.payload);
      return;
    }
    try {
      const SimTime received = net_.engine().now();
      const Served served =
          serve_at(n, envelope->request, envelope->routing_key,
                   /*owner_side=*/true, envelope->trace);
      // Receive and ready stamps ride the reply so the relay can split
      // forward-wire, owner-compute, and reply-wire time (sim clocks are
      // globally consistent, so the stamps need no skew correction).
      ForwardReply reply;
      reply.ok = true;
      reply.hit = served.hit;
      reply.received_us = received.as_micros();
      reply.ready_us = served.ready_at.as_micros();
      reply.decision = served.decision;
      net_.engine().schedule_at(
          served.ready_at,
          [this, n, from = envelope->from, tag = envelope->reply_tag,
           bytes = encode_forward_reply(reply)]() mutable {
            mmps_.send(host_of(n), host_of(from), tag, std::move(bytes));
          });
    } catch (const Error&) {
      // Cold path rejected the request: report failure immediately so the
      // relay does not burn its RTO on a non-crash.
      mmps_.send(host_of(n), host_of(envelope->from), envelope->reply_tag,
                 encode_forward_reply(ForwardReply{}));
    }
  });
}

void Fleet::fail_bad_forward(NodeId n, const std::vector<std::byte>& bytes) {
  // The body did not decode (already counted in fleet.bad_frames).  If the
  // header still names a fleet node, answer with a failure so its relay
  // does not wait out the RTO; otherwise drop the frame.
  ForwardHeader header;
  try {
    WireReader r(bytes);
    header = decode_forward_header_from(r);
  } catch (const InvalidArgument&) {
    return;
  }
  if (header.from < 0 || header.from >= num_nodes()) return;
  mmps_.send(host_of(n), host_of(header.from), header.reply_tag,
             encode_forward_reply(ForwardReply{}));
}

// --- request path ----------------------------------------------------------

Fleet::Served Fleet::serve_at(NodeId at, const svc::PartitionRequest& request,
                              std::uint64_t routing_key, bool owner_side,
                              const obs::TraceContext& parent) {
  FleetNode& n = node(at);
  const SimTime began = net_.engine().now();
  const std::uint64_t key = svc::request_key(request, signature_, n.epoch());
  Served served;
  served.ctx = n.child_of(parent);
  served.decision = n.cache().lookup(key);
  served.hit = served.decision != nullptr;
  if (served.hit) {
    ++stats_.hits;
    n.metrics().hits.add();
    if (owner_side && n.record_hit(key, routing_key)) {
      replicate(at, routing_key, served.decision, served.ctx);
    }
  } else {
    ++stats_.misses;
    n.metrics().misses.add();
    svc::PartitionDecision d = cold_path_(request);
    d.key = key;
    d.epoch = n.epoch();
    auto decision = std::make_shared<const svc::PartitionDecision>(
        std::move(d));
    n.cache().insert(decision);
    served.decision = std::move(decision);
  }
  n.metrics().serves.add();
  served.ready_at = net_.host(host_of(at))
                        .reserve(net_.engine().now(),
                                 served.hit ? options_.hit_service
                                            : options_.cold_service);
  record_node_span(at, "fleet.serve", served.ctx, began, served.ready_at,
                   {{"hit", JsonValue(served.hit)}});
  return served;
}

void Fleet::replicate(NodeId owner, std::uint64_t routing_key,
                      const std::shared_ptr<const svc::PartitionDecision>& d,
                      const obs::TraceContext& parent) {
  FleetNode& o = node(owner);
  const std::vector<NodeId> replicas =
      o.ring().replicas(routing_key, options_.replication);
  for (NodeId replica : replicas) {
    if (replica == owner) continue;
    mmps_.send(host_of(owner), host_of(replica), kReplicateTag,
               encode_replicate({o.child_of(parent), d}));
    ++stats_.replications_pushed;
    ctr_replications_.add();
  }
}

void Fleet::submit(const svc::PartitionRequest& request, NodeId entry,
                   ReplyCallback done) {
  ++stats_.requests;
  auto a = std::make_shared<Attempt>();
  a->request = request;
  a->routing_key = routing_key(request);
  a->entry = entry;
  a->started = net_.engine().now();
  a->done = std::move(done);
  FleetNode& e = node(entry);
  e.metrics().requests.add();
  a->trace = e.new_root();
  a->targets = e.ring().replicas(a->routing_key, options_.replication);
  NP_REQUIRE(!a->targets.empty(), "empty routing ring at entry node");

  // Read-your-replica fast path: the entry is not the owner but holds a
  // replicated copy -- serve it without a network round trip.  peek() is
  // stats-neutral, so a miss here costs nothing.
  if (a->targets.front() != entry &&
      std::find(a->targets.begin(), a->targets.end(), entry) !=
          a->targets.end()) {
    const std::uint64_t key =
        svc::request_key(request, signature_, e.epoch());
    if (auto decision = e.cache().peek(key)) {
      ++stats_.hits;
      ++stats_.replica_serves;
      e.metrics().hits.add();
      e.metrics().serves.add();
      const SimTime ready = net_.host(host_of(entry))
                                .reserve(a->started, options_.hit_service);
      record_node_span(entry, "fleet.serve", e.child_of(a->trace),
                       a->started, ready,
                       {{"hit", JsonValue(true)},
                        {"replica", JsonValue(true)}});
      hop_route_us_.record(0.0);
      hop_compute_us_.record((ready - a->started).as_micros());
      net_.engine().schedule_at(ready, [this, a, decision] {
        finish(a, /*ok=*/true, /*hit=*/true, a->entry, decision);
      });
      return;
    }
  }
  try_next(a);
}

void Fleet::try_next(const AttemptPtr& a) {
  FleetNode& e = node(a->entry);
  while (a->next_target < a->targets.size()) {
    const NodeId target = a->targets[a->next_target++];
    if (e.peers().health(target) == PeerHealth::Dead) continue;
    if (target == a->entry) {
      // The entry is (or has become, after failovers) the acting owner.
      try {
        const SimTime began = net_.engine().now();
        const Served served =
            serve_at(a->entry, a->request, a->routing_key,
                     /*owner_side=*/true, a->trace);
        ++stats_.local_serves;
        // Local attribution: route = failover wait before this serve,
        // compute = the host-reserved service time; no wire hops.
        hop_route_us_.record((began - a->started).as_micros());
        hop_compute_us_.record((served.ready_at - began).as_micros());
        net_.engine().schedule_at(served.ready_at, [this, a, served] {
          finish(a, /*ok=*/true, served.hit, a->entry, served.decision);
        });
      } catch (const Error&) {
        finish(a, /*ok=*/false, /*hit=*/false, a->entry, nullptr);
      }
      return;
    }
    forward_to(a, target);
    return;
  }
  finish(a, /*ok=*/false, /*hit=*/false, -1, nullptr);
}

void Fleet::forward_to(const AttemptPtr& a, NodeId target) {
  const std::int32_t reply_tag = next_reply_tag_++;
  FleetNode& e = node(a->entry);
  const obs::TraceContext fwd_ctx = e.child_of(a->trace);
  const SimTime sent = net_.engine().now();
  a->forward_sent = sent;
  ForwardEnvelope envelope;
  envelope.from = a->entry;
  envelope.routing_key = a->routing_key;
  envelope.reply_tag = reply_tag;
  envelope.trace = fwd_ctx;  // the owner's serve becomes this span's child
  envelope.request = a->request;
  mmps_.send(host_of(a->entry), host_of(target), kForwardTag,
             encode_forward(envelope));
  ++stats_.forwards;
  ctr_forwards_.add();
  e.metrics().forwards.add();
  mmps_.recv_with_timeout(
      host_of(a->entry), host_of(target), reply_tag, options_.forward_timeout,
      [this, a, target, fwd_ctx, sent](mmps::Message msg) {
        std::optional<ForwardReply> reply =
            decode_or_count(node(a->entry), decode_forward_reply, msg.payload);
        if (!reply) {
          fail_over(a, target, fwd_ctx, sent, "bad_reply");
          return;
        }
        const SimTime now = net_.engine().now();
        record_node_span(a->entry, "fleet.forward", fwd_ctx, sent, now,
                         {{"target", JsonValue(static_cast<double>(target))},
                          {"ok", JsonValue(reply->ok)}});
        if (!reply->ok) {
          finish(a, /*ok=*/false, /*hit=*/false, target, nullptr);
          return;
        }
        // Owner-side stamps (sim clock, globally consistent) split the
        // round trip into its hops.
        hop_route_us_.record((sent - a->started).as_micros());
        hop_forward_us_.record(reply->received_us - sent.as_micros());
        hop_compute_us_.record(reply->ready_us - reply->received_us);
        hop_reply_us_.record(now.as_micros() - reply->ready_us);
        finish(a, /*ok=*/true, reply->hit, target,
               std::move(reply->decision));
      },
      [this, a, target, fwd_ctx, sent] {
        fail_over(a, target, fwd_ctx, sent, "timeout");
      });
}

void Fleet::fail_over(const AttemptPtr& a, NodeId target,
                      const obs::TraceContext& fwd_ctx, SimTime sent,
                      const char* outcome) {
  // Treat the owner as failed for this request and reroute to the next
  // replica.  The peer table catches up via its own silence thresholds /
  // the token ring's dead reports.
  ++stats_.failovers;
  ++a->failovers;
  ctr_failovers_.add();
  const SimTime now = net_.engine().now();
  record_node_span(a->entry, "fleet.forward", fwd_ctx, sent, now,
                   {{"target", JsonValue(static_cast<double>(target))},
                    {"ok", JsonValue(false)},
                    {"outcome", JsonValue(outcome)}});
  FleetNode& entry_node = node(a->entry);
  if (entry_node.telemetry().enabled()) {
    obs::InstantRecord rec;
    rec.name = "fleet.failover";
    rec.category = "fleet";
    rec.sim_clock = true;
    rec.ts_us = now.as_micros();
    rec.attrs = {{"entry", JsonValue(static_cast<double>(a->entry))},
                 {"target", JsonValue(static_cast<double>(target))}};
    entry_node.telemetry().record_instant(std::move(rec));
  }
  try_next(a);
}

void Fleet::finish(const AttemptPtr& a, bool ok, bool hit, NodeId served_by,
                   std::shared_ptr<const svc::PartitionDecision> decision) {
  if (ok) {
    ++stats_.ok;
  } else {
    ++stats_.failed;
  }
  FleetReply reply;
  reply.ok = ok;
  reply.cache_hit = hit;
  reply.served_by = served_by;
  reply.failovers = a->failovers;
  reply.latency = net_.engine().now() - a->started;
  reply.decision = std::move(decision);
  if (ok) {
    hop_total_us_.record(reply.latency.as_micros());
    node(a->entry).metrics().request_us.record(reply.latency.as_micros());
  }
  record_node_span(a->entry, "fleet.request", a->trace, a->started,
                   net_.engine().now(),
                   {{"ok", JsonValue(ok)},
                    {"hit", JsonValue(hit)},
                    {"served_by", JsonValue(static_cast<double>(served_by))},
                    {"failovers",
                     JsonValue(static_cast<double>(a->failovers))}});
  if (a->done) a->done(reply);
}

void Fleet::record_node_span(NodeId at, const char* name,
                             const obs::TraceContext& ctx, SimTime start,
                             SimTime end, obs::AttrList attrs) {
  FleetNode& n = node(at);
  if (!n.telemetry().enabled()) return;
  obs::SpanRecord rec;
  rec.name = name;
  rec.category = "fleet";
  rec.sim_clock = true;
  rec.tid = 0;  // the fleet control plane is one simulated thread per node
  rec.start_us = start.as_micros();
  const double dur = end.as_micros() - start.as_micros();
  rec.dur_us = dur > 0.0 ? dur : 0.0;
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;
  rec.parent_span_id = ctx.parent_span_id;
  rec.attrs = std::move(attrs);
  n.telemetry().record_span(std::move(rec));
}

// --- epochs and failure reports --------------------------------------------

void Fleet::announce_epoch(NodeId at, std::uint64_t epoch) {
  if (!node_alive(at)) return;
  if (node(at).observe_epoch(epoch)) ++stats_.epoch_adoptions;
}

void Fleet::report_dead_peers(const std::vector<ClusterId>& dead) {
  for (const auto& n : nodes_) {
    if (!node_alive(n->id())) continue;
    for (ClusterId d : dead) n->peers().report_dead(d);
  }
}

double Fleet::warm_fraction_for(NodeId dead) {
  FleetNode& d = node(dead);
  const auto hot = d.hot_entries();
  if (hot.empty()) return 1.0;
  int warm = 0;
  for (const auto& [cache_key, route] : hot) {
    // The designated failover target is the first surviving replica in
    // the dead node's own (pre-crash) ring order.
    const std::vector<NodeId> replicas =
        d.ring().replicas(route, options_.replication);
    for (NodeId replica : replicas) {
      if (replica == dead || !node_alive(replica)) continue;
      if (node(replica).cache().peek(cache_key) != nullptr) ++warm;
      break;
    }
  }
  return static_cast<double>(warm) / static_cast<double>(hot.size());
}

}  // namespace netpart::fleet
