// Per-node peer health view (see DESIGN.md §12).
//
// Each fleet node keeps its own PeerTable: the last simulated time it heard
// a heartbeat from every peer, classified into alive / suspect / dead by
// two timeouts.  Two inputs feed it:
//
//   * heartbeats over MMPS channels -- a crashed host stops sending, the
//     simulator silently drops anything addressed to/from it (datagram
//     semantics), and silence is the only failure signal;
//   * dead-peer reports -- the PR 1 fault-tolerant availability token ring
//     already proves which managers are unreachable (ProtocolResult::dead);
//     report_dead() folds those verdicts in immediately, skipping the
//     suspicion window.
//
// The table is deliberately monotone for fail-stop faults: dead is
// terminal (the sim's crashed hosts never return), while suspect recovers
// to alive on the next heartbeat -- a slow or partitioned peer is given
// the benefit of the doubt until dead_after elapses.  `version()` bumps on
// every health transition so the owner node knows when to rebuild its
// HashRing without diffing the whole table.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/hash_ring.hpp"
#include "util/time.hpp"

namespace netpart::fleet {

enum class PeerHealth : std::uint8_t {
  Alive,    ///< heard from within suspect_after
  Suspect,  ///< silent for suspect_after, still routed to
  Dead,     ///< silent for dead_after or reported dead; terminal
};

struct PeerTableOptions {
  /// Silence before a peer turns suspect.  Must exceed the heartbeat
  /// period or healthy peers flap (npcheck NP-F004 guards the configs).
  SimTime suspect_after = SimTime::millis(300);
  /// Silence before a suspect peer is declared dead and leaves the ring.
  SimTime dead_after = SimTime::millis(900);
};

class PeerTable {
 public:
  /// `self` starts (and stays) alive; every other node starts alive as of
  /// `now` -- the fleet bootstraps optimistically and lets the timeouts
  /// find the truth.
  PeerTable(std::vector<NodeId> nodes, NodeId self, SimTime now,
            PeerTableOptions options = {});

  NodeId self() const { return self_; }

  /// A heartbeat (or any authenticated traffic) from `peer` arrived at
  /// `now`.  Revives a suspect; ignored for a dead peer (fail-stop).
  void record_heartbeat(NodeId peer, SimTime now);

  /// Fold in a token-ring dead verdict: immediately Dead, no suspicion
  /// window.  Idempotent.
  void report_dead(NodeId peer);

  /// Advance health states to `now` (alive -> suspect -> dead as the
  /// timeouts expire).  Called from the node's periodic timer.
  void tick(SimTime now);

  PeerHealth health(NodeId peer) const;

  /// Ring membership: every node not known dead (self included).  Suspects
  /// stay in the ring -- evicting on first suspicion would reshuffle the
  /// key space on every transient hiccup.
  std::vector<NodeId> ring_members() const;

  /// Bumps on every health transition; the owner rebuilds its HashRing
  /// when the version it built against goes stale.
  std::uint64_t version() const { return version_; }

 private:
  struct Peer {
    NodeId id;
    PeerHealth health = PeerHealth::Alive;
    SimTime heard = SimTime::zero();
  };

  Peer& find(NodeId peer);
  const Peer& find(NodeId peer) const;
  void transition(Peer& peer, PeerHealth next);

  std::vector<Peer> peers_;  // ascending by id
  NodeId self_;
  PeerTableOptions options_;
  std::uint64_t version_ = 1;
};

}  // namespace netpart::fleet
