#include "fleet/peer_table.hpp"

#include <algorithm>

#include "analysis/race/annotations.hpp"
#include "util/error.hpp"

namespace netpart::fleet {

PeerTable::PeerTable(std::vector<NodeId> nodes, NodeId self, SimTime now,
                     PeerTableOptions options)
    : self_(self), options_(options) {
  NP_REQUIRE(!nodes.empty(), "peer table needs at least one node");
  NP_REQUIRE(options.suspect_after > SimTime::zero() &&
                 options.dead_after > options.suspect_after,
             "peer timeouts must satisfy 0 < suspect_after < dead_after");
  std::sort(nodes.begin(), nodes.end());
  NP_REQUIRE(std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end(),
             "peer table nodes must be distinct");
  NP_REQUIRE(std::binary_search(nodes.begin(), nodes.end(), self),
             "self must be one of the nodes");
  peers_.reserve(nodes.size());
  for (NodeId id : nodes) {
    peers_.push_back(Peer{id, PeerHealth::Alive, now});
  }
}

PeerTable::Peer& PeerTable::find(NodeId peer) {
  const auto it = std::lower_bound(
      peers_.begin(), peers_.end(), peer,
      [](const Peer& p, NodeId id) { return p.id < id; });
  NP_REQUIRE(it != peers_.end() && it->id == peer,
             "unknown peer id in peer table");
  return *it;
}

const PeerTable::Peer& PeerTable::find(NodeId peer) const {
  return const_cast<PeerTable*>(this)->find(peer);
}

void PeerTable::transition(Peer& peer, PeerHealth next) {
  if (peer.health == next) return;
  // npracer: each fleet node owns its table and mutates it only from that
  // node's event handlers.  Single-threaded in the simulator, so these
  // stay quiet; they become load-bearing if the fleet is ever threaded.
  NP_WRITE(&peers_, "fleet.peer_table.peers");
  peer.health = next;
  ++version_;
}

void PeerTable::record_heartbeat(NodeId peer, SimTime now) {
  Peer& p = find(peer);
  if (p.health == PeerHealth::Dead) return;  // fail-stop: no resurrection
  NP_WRITE(&peers_, "fleet.peer_table.peers");
  p.heard = std::max(p.heard, now);
  transition(p, PeerHealth::Alive);
}

void PeerTable::report_dead(NodeId peer) {
  if (peer == self_) return;  // a node never declares itself dead
  transition(find(peer), PeerHealth::Dead);
}

void PeerTable::tick(SimTime now) {
  NP_WRITE(&peers_, "fleet.peer_table.peers");
  for (Peer& p : peers_) {
    if (p.id == self_ || p.health == PeerHealth::Dead) continue;
    const SimTime silent = now - p.heard;
    if (silent >= options_.dead_after) {
      transition(p, PeerHealth::Dead);
    } else if (silent >= options_.suspect_after) {
      transition(p, PeerHealth::Suspect);
    }
  }
}

PeerHealth PeerTable::health(NodeId peer) const {
  NP_READ(&peers_, "fleet.peer_table.peers");
  return find(peer).health;
}

std::vector<NodeId> PeerTable::ring_members() const {
  NP_READ(&peers_, "fleet.peer_table.peers");
  std::vector<NodeId> members;
  members.reserve(peers_.size());
  for (const Peer& p : peers_) {
    if (p.health != PeerHealth::Dead) members.push_back(p.id);
  }
  return members;
}

}  // namespace netpart::fleet
