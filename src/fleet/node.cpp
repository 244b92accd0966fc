#include "fleet/node.hpp"

#include <algorithm>

#include "analysis/race/annotations.hpp"

namespace netpart::fleet {

FleetNode::FleetNode(NodeId id, const std::vector<NodeId>& nodes,
                     SimTime now, const PeerTableOptions& peer_options,
                     const NodeOptions& options, bool tracing,
                     std::uint64_t trace_seed)
    : id_(id),
      options_(options),
      tracing_(tracing),
      peers_(nodes, id, now, peer_options),
      cache_(options.cache_capacity, options.cache_shards),
      telemetry_(std::make_unique<obs::TelemetryRegistry>(
          /*enabled=*/tracing)),
      metrics_{telemetry_->counter("fleet.node.requests"),
               telemetry_->counter("fleet.node.forwards"),
               telemetry_->counter("fleet.node.hits"),
               telemetry_->counter("fleet.node.misses"),
               telemetry_->counter("fleet.node.serves"),
               telemetry_->latency("fleet.node.request_us")} {
  telemetry_->set_trace_seed(trace_seed, static_cast<std::uint64_t>(id));
}

obs::TraceContext FleetNode::new_root() {
  if (!tracing_) return obs::TraceContext{};
  obs::TraceContext ctx;
  ctx.trace_id = telemetry_->next_trace_id();
  ctx.span_id = telemetry_->next_trace_id();
  ctx.parent_span_id = 0;
  return ctx;
}

obs::TraceContext FleetNode::child_of(const obs::TraceContext& parent) {
  if (!tracing_) return obs::TraceContext{};
  if (!parent.valid()) return new_root();
  obs::TraceContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id = telemetry_->next_trace_id();
  ctx.parent_span_id = parent.span_id;
  return ctx;
}

bool FleetNode::observe_epoch(std::uint64_t epoch) {
  // npracer: gossip epoch and hot-key stats are per-node state, touched
  // only from this node's handlers on the simulator thread.  Quiet today;
  // flagged immediately if the fleet driver ever goes multi-threaded.
  NP_READ(&epoch_, "fleet.node.epoch");
  if (epoch <= epoch_) return false;
  NP_WRITE(&epoch_, "fleet.node.epoch");
  epoch_ = epoch;
  cache_.invalidate_before(epoch);
  NP_WRITE(&hits_, "fleet.node.hot_stats");
  hits_.clear();
  return true;
}

const HashRing& FleetNode::ring() {
  if (ring_version_ != peers_.version()) {
    ring_ = HashRing(peers_.ring_members(), options_.vnodes);
    ring_version_ = peers_.version();
  }
  return ring_;
}

bool FleetNode::record_hit(std::uint64_t cache_key,
                           std::uint64_t routing_key) {
  NP_WRITE(&hits_, "fleet.node.hot_stats");
  HotStat& stat = hits_[cache_key];
  stat.routing_key = routing_key;
  return ++stat.count == options_.hot_threshold;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> FleetNode::hot_entries()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  NP_READ(&hits_, "fleet.node.hot_stats");
  for (const auto& [key, stat] : hits_) {
    if (stat.count >= options_.hot_threshold) {
      entries.emplace_back(key, stat.routing_key);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

}  // namespace netpart::fleet
