// Synchronous communication-cycle runner.
//
// One cycle: every rank initiates an asynchronous send of `bytes` to each of
// its send-neighbours, then blocks until it has received from each of its
// recv-neighbours.  The runner executes the cycle on the network simulator
// and reports per-rank and maximum elapsed times.  Offline calibration
// (Section 3 of the paper) benchmarks Eq. 1 with it.  The SPMD executor
// (exec/executor.cpp) does not call it: it has its own send loop, and
// shares with this one the neighbour sets (send_neighbors /
// recv_neighbors) and the simulator, so the calibrated model measures the
// same messages on the same network as the application sends.
//
// A CommCycle holds one (topology, p)'s message list and its run buffers,
// so a calibration sweep builds the list once per p and its samples run
// without allocating.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/netsim.hpp"
#include "topo/placement.hpp"
#include "topo/topology.hpp"

namespace netpart {

struct CycleResult {
  /// Per-rank elapsed time: from cycle start to the completion of the
  /// rank's communication (its last send delivered and last receive
  /// processed).
  std::vector<SimTime> per_rank;
  /// The synchronous cost: max over ranks (what every processor
  /// effectively experiences; verified empirically in the paper).
  SimTime elapsed_max;
  /// Mean over ranks, for dispersion checks.
  SimTime elapsed_mean;
};

/// One synchronous communication cycle of a topology among p ranks, ready
/// to run: its directed messages, built once, and the buffers a run fills.
/// A calibration sweep keeps one per (topology, p) and runs every message
/// size of that p through it, so a run after the first allocates nothing
/// (NetSim::reset keeps the simulator's tables too).
class CommCycle {
 public:
  CommCycle(Topology topology, int p);

  // Each run's delivery callbacks capture `this`.
  CommCycle(const CommCycle&) = delete;
  CommCycle& operator=(const CommCycle&) = delete;

  /// Run `cycles` back-to-back communication cycles on `placement` (p
  /// processors, rank r on placement[r]) and return the average per-cycle
  /// result, valid until the next run.  The simulator's engine must be
  /// idle on entry; the run drains it before returning.  The delivery
  /// callbacks point into this object, so if an event throws during the
  /// run, discard or reset the simulator: it still holds the cycle's
  /// messages.
  ///
  /// Once a cycle both starts and ends with the simulator at rest
  /// (NetSim::at_rest), every later cycle would replay it shifted in time,
  /// so the run adds the remaining cycles arithmetically instead of
  /// simulating them; the result is bit for bit what simulating them
  /// gives.  A lossy or traced run, or one with a crashed, slowed, down or
  /// degraded resource, simulates every cycle; one that starts with a host
  /// or channel still busy simulates until a cycle starts and ends at
  /// rest.  After a shortcut the engine clock, events_executed() and the
  /// NetSim counters cover only the simulated cycles: read the cycles'
  /// cost from the CycleResult, not from the simulator.
  const CycleResult& run(sim::NetSim& net, const Placement& placement,
                         std::int64_t bytes, int cycles = 1);

 private:
  int p_;
  /// cycle_messages(topology, p).
  std::vector<std::pair<GlobalRank, GlobalRank>> messages_;
  // What a run's delivery callbacks write; each captures (this, message
  // index), 16 trivially copyable bytes that the engine stores inline.
  const sim::Engine* engine_ = nullptr;
  std::vector<SimTime> delivered_at_;  ///< by message, this cycle
  std::size_t remaining_ = 0;
  std::vector<SimTime> rank_done_;     ///< by rank, this cycle
  CycleResult result_;
};

/// CommCycle(topology, placement.size()).run(...), for a one-off run.
CycleResult run_comm_cycles(sim::NetSim& net, const Placement& placement,
                            Topology topology, std::int64_t bytes,
                            int cycles = 1);

}  // namespace netpart
