#include "fleet/fleet_telemetry.hpp"

#include "util/string_util.hpp"

namespace netpart::fleet {

void FleetTelemetry::sync_loss_counters() {
  const std::uint64_t dropped = fleet_.net().messages_dropped();
  fleet_.telemetry()
      .counter("sim.messages_dropped")
      .add(dropped - synced_net_dropped_);
  synced_net_dropped_ = dropped;

  synced_record_dropped_.resize(
      static_cast<std::size_t>(fleet_.num_nodes()), 0);
  for (NodeId id : fleet_.node_ids()) {
    obs::TelemetryRegistry& reg = fleet_.node(id).telemetry();
    const std::uint64_t node_dropped = reg.dropped_records();
    std::uint64_t& synced =
        synced_record_dropped_[static_cast<std::size_t>(id)];
    reg.counter("obs.records.dropped").add(node_dropped - synced);
    synced = node_dropped;
  }
}

std::vector<obs::TraceLane> FleetTelemetry::lanes() const {
  std::vector<obs::TraceLane> lanes;
  lanes.reserve(static_cast<std::size_t>(fleet_.num_nodes()));
  for (NodeId id : fleet_.node_ids()) {
    lanes.push_back(obs::TraceLane{"node" + std::to_string(id),
                                   &fleet_.node(id).telemetry()});
  }
  return lanes;
}

std::vector<obs::LabelledRegistry> FleetTelemetry::metric_sources() {
  sync_loss_counters();
  std::vector<obs::LabelledRegistry> sources{{&fleet_.telemetry(), ""}};
  for (NodeId id : fleet_.node_ids()) {
    sources.push_back(
        {&fleet_.node(id).telemetry(), "node=" + std::to_string(id)});
  }
  return sources;
}

std::vector<NodeHealth> FleetTelemetry::health() const {
  std::vector<NodeHealth> out;
  const std::vector<NodeId> ids = fleet_.node_ids();
  out.reserve(ids.size());
  for (NodeId id : ids) {
    FleetNode& n = fleet_.node(id);
    NodeHealth h;
    h.id = id;
    h.alive = fleet_.node_alive(id);
    h.requests = n.metrics().requests.value();
    h.forwards = n.metrics().forwards.value();
    h.serves = n.metrics().serves.value();
    const obs::QuantileSummary q = n.metrics().request_us.quantiles();
    h.p50_us = q.p50;
    h.p99_us = q.p99;
    if (h.requests > 0) {
      h.forward_ratio = static_cast<double>(h.forwards) /
                        static_cast<double>(h.requests);
    }
    const std::uint64_t hits = n.metrics().hits.value();
    const std::uint64_t misses = n.metrics().misses.value();
    if (hits + misses > 0) {
      h.warm_fraction =
          static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
    for (NodeId peer : ids) {
      if (peer == id) continue;
      if (n.peers().health(peer) == PeerHealth::Dead) ++h.dead_peers;
    }
    out.push_back(h);
  }
  return out;
}

std::string FleetTelemetry::health_text() const {
  std::string out;
  for (const NodeHealth& h : health()) {
    out += "node " + std::to_string(h.id) +
           " alive=" + (h.alive ? std::string("1") : std::string("0")) +
           " requests=" + std::to_string(h.requests) +
           " forwards=" + std::to_string(h.forwards) +
           " serves=" + std::to_string(h.serves) +
           " p50_us=" + format_double(h.p50_us, 3) +
           " p99_us=" + format_double(h.p99_us, 3) +
           " forward_ratio=" + format_double(h.forward_ratio, 3) +
           " warm_fraction=" + format_double(h.warm_fraction, 3) +
           " dead_peers=" + std::to_string(h.dead_peers) + "\n";
  }
  return out;
}

}  // namespace netpart::fleet
