#include "topo/placement.hpp"

#include <numeric>

#include "util/error.hpp"

namespace netpart {

int config_total(const ProcessorConfig& config) {
  return std::accumulate(config.begin(), config.end(), 0);
}

void validate_config(const Network& net, const ProcessorConfig& config) {
  NP_REQUIRE(static_cast<int>(config.size()) == net.num_clusters(),
             "configuration must name every cluster");
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    const int p = config[static_cast<std::size_t>(c)];
    NP_REQUIRE(p >= 0 && p <= net.cluster(c).size(),
               "configuration exceeds cluster capacity");
  }
  NP_REQUIRE(config_total(config) > 0,
             "configuration must select at least one processor");
}

std::vector<ClusterId> clusters_by_speed(const Network& net) {
  // Insertion sort in place: a cluster moves left only past strictly
  // slower ones, so ties keep id order -- std::stable_sort's order,
  // without its temporary buffer.  Every CycleEstimator calls this, and
  // networks have a handful of clusters.
  std::vector<ClusterId> order(static_cast<std::size_t>(net.num_clusters()));
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    const SimTime flop_time = net.cluster(c).flop_time();
    auto slot = static_cast<std::size_t>(c);
    for (; slot > 0 && flop_time < net.cluster(order[slot - 1]).flop_time();
         --slot) {
      order[slot] = order[slot - 1];
    }
    order[slot] = c;
  }
  return order;
}

Placement contiguous_placement(const Network& net,
                               const ProcessorConfig& config,
                               const std::vector<ClusterId>& cluster_order) {
  validate_config(net, config);
  NP_REQUIRE(static_cast<int>(cluster_order.size()) == net.num_clusters(),
             "cluster order must name every cluster");
  Placement placement;
  placement.reserve(static_cast<std::size_t>(config_total(config)));
  for (ClusterId c : cluster_order) {
    const int p = config[static_cast<std::size_t>(c)];
    for (ProcessorIndex i = 0; i < p; ++i) {
      placement.push_back(ProcessorRef{c, i});
    }
  }
  return placement;
}

Placement contiguous_placement(const Network& net,
                               const ProcessorConfig& config) {
  return contiguous_placement(net, config, clusters_by_speed(net));
}

Placement round_robin_placement(const Network& net,
                                const ProcessorConfig& config) {
  validate_config(net, config);
  Placement placement;
  placement.reserve(static_cast<std::size_t>(config_total(config)));
  ProcessorConfig used(config.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (ClusterId c = 0; c < net.num_clusters(); ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (used[ci] < config[ci]) {
        placement.push_back(ProcessorRef{c, used[ci]});
        ++used[ci];
        progressed = true;
      }
    }
  }
  return placement;
}

Placement available_placement(
    const Network& net, const ProcessorConfig& config,
    const std::vector<std::vector<ProcessorIndex>>& available,
    const std::vector<ClusterId>& cluster_order) {
  validate_config(net, config);
  NP_REQUIRE(static_cast<int>(cluster_order.size()) == net.num_clusters(),
             "cluster order must name every cluster");
  NP_REQUIRE(static_cast<int>(available.size()) == net.num_clusters(),
             "available-index lists must name every cluster");
  Placement placement;
  placement.reserve(static_cast<std::size_t>(config_total(config)));
  for (ClusterId c : cluster_order) {
    const std::size_t ci = static_cast<std::size_t>(c);
    const int p = config[ci];
    NP_REQUIRE(p <= static_cast<int>(available[ci].size()),
               "configuration exceeds the cluster's available processors");
    for (int i = 0; i < p; ++i) {
      const ProcessorIndex idx = available[ci][static_cast<std::size_t>(i)];
      NP_REQUIRE(idx >= 0 && idx < net.cluster(c).size(),
                 "available index out of range");
      placement.push_back(ProcessorRef{c, idx});
    }
  }
  return placement;
}

std::int64_t router_crossings(const Network& net, const Placement& placement,
                              Topology t) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  const int p = static_cast<int>(placement.size());
  std::int64_t crossings = 0;
  for (const auto& [from, to] : cycle_messages(t, p)) {
    const SegmentId sa =
        net.cluster(placement[static_cast<std::size_t>(from)].cluster)
            .segment();
    const SegmentId sb =
        net.cluster(placement[static_cast<std::size_t>(to)].cluster)
            .segment();
    if (sa != sb) ++crossings;
  }
  return crossings;
}

}  // namespace netpart
