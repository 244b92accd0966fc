#include "fleet/hash_ring.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace netpart::fleet {

namespace {

/// Ring position of virtual node `v` of `node`.  Domain-tagged so a node id
/// can never collide with a request key that happens to share its bits.
/// FNV-1a over short structured inputs is nearly affine: two vnodes of the
/// same node differ in a handful of output bits, so the raw digests cluster
/// into per-node lattices instead of interleaving around the ring (measured:
/// one node of four owned ~90% of the key space).  The SplitMix64 finalizer
/// avalanches every input bit across the word and restores the uniform
/// spread consistent hashing depends on.
std::uint64_t vnode_hash(NodeId node, int v) {
  Fnv1a h;
  h.str("fleet.vnode").i32(node).i32(v);
  return splitmix64_finalize(h.value());
}

/// Request keys are already FNV-1a outputs, but they share the ring with
/// vnode hashes; the finalizing round also keeps the two families
/// independent.
std::uint64_t key_hash(std::uint64_t key) {
  Fnv1a h;
  h.str("fleet.key").u64(key);
  return splitmix64_finalize(h.value());
}

}  // namespace

HashRing::HashRing(const std::vector<NodeId>& nodes, int vnodes_per_node) {
  NP_REQUIRE(vnodes_per_node >= 1, "ring needs at least one vnode per node");
  nodes_ = nodes;
  std::sort(nodes_.begin(), nodes_.end());
  NP_REQUIRE(std::adjacent_find(nodes_.begin(), nodes_.end()) ==
                 nodes_.end(),
             "ring nodes must be distinct");
  points_.reserve(nodes_.size() * static_cast<std::size_t>(vnodes_per_node));
  for (NodeId node : nodes_) {
    for (int v = 0; v < vnodes_per_node; ++v) {
      points_.push_back(Point{vnode_hash(node, v), node});
    }
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a,
                                               const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.node < b.node;  // full-collision tie: lower id wins, stably
  });
}

std::size_t HashRing::lower_bound_index(std::uint64_t key) const {
  NP_REQUIRE(!points_.empty(), "owner lookup on an empty ring");
  const std::uint64_t h = key_hash(key);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t value) { return p.hash < value; });
  if (it == points_.end()) return 0;  // wrap past the last point
  return static_cast<std::size_t>(it - points_.begin());
}

std::vector<NodeId> HashRing::replicas(std::uint64_t key,
                                       int replicas) const {
  NP_REQUIRE(replicas >= 1, "replication factor must be >= 1");
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(replicas));
  std::size_t i = lower_bound_index(key);
  for (std::size_t seen = 0;
       seen < points_.size() && static_cast<int>(out.size()) < replicas;
       ++seen) {
    const NodeId node = points_[(i + seen) % points_.size()].node;
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
  }
  return out;
}

}  // namespace netpart::fleet
