// Consistent-hash routing for the netpartd fleet (see DESIGN.md §12).
//
// Every PartitionRequest already has a canonical FNV-1a key (svc/request);
// the ring maps that key space onto fleet nodes so all N nodes agree on
// which node owns a request without any coordination.  Each node is hashed
// onto the ring at `vnodes` points (virtual nodes smooth the per-node key
// share from O(1/sqrt(V)) skew down to a few percent); a key is owned by
// the first point clockwise from the key's hash, and replicated on the
// next R-1 *distinct* nodes after the owner, so losing one node moves only
// its own arc to the successors instead of reshuffling the whole space.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"

namespace netpart::fleet {

/// Fleet nodes are named by the cluster whose manager host they run on
/// (one netpartd node per cluster of the fleet network).
using NodeId = ClusterId;

class HashRing {
 public:
  /// An empty ring owns nothing (replicas() on it is an error).
  HashRing() = default;

  /// Hash each node onto the ring at `vnodes_per_node` points.  Nodes must
  /// be distinct; order does not matter (the ring is order-independent by
  /// construction -- two peers that agree on the member *set* agree on
  /// every routing decision).
  HashRing(const std::vector<NodeId>& nodes, int vnodes_per_node);

  bool empty() const { return points_.empty(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<NodeId>& nodes() const { return nodes_; }

  /// The owner -- the node of the first ring point at or clockwise after
  /// the key's hash -- plus the next `replicas - 1` distinct nodes in ring
  /// order (fewer when the ring has fewer nodes).  replicas >= 1.
  std::vector<NodeId> replicas(std::uint64_t key, int replicas) const;

  /// Position of the first ring point at or after the key's (re-mixed)
  /// hash -- exposed so tests can pin the wrap-around behaviour.
  std::size_t lower_bound_index(std::uint64_t key) const;

 private:
  struct Point {
    std::uint64_t hash;
    NodeId node;
  };

  std::vector<Point> points_;  // sorted by (hash, node)
  std::vector<NodeId> nodes_;  // member set, ascending
};

}  // namespace netpart::fleet
