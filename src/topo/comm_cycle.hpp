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

/// Run `cycles` back-to-back communication cycles and return the average
/// per-cycle result.  The simulator's engine must be idle on entry; the
/// runner drains it before returning.  The delivery callbacks point into
/// the runner's frame, so if an event throws during the run, discard or
/// reset the simulator: it still holds the cycle's messages.
///
/// Once a cycle both starts and ends with the simulator at rest
/// (NetSim::at_rest), every later cycle would replay it shifted in time,
/// so the runner adds the remaining cycles arithmetically instead of
/// simulating them; the result is bit for bit what simulating them gives.
/// A lossy or traced run, or one with a crashed, slowed, down or degraded
/// resource, simulates every cycle; one that starts with a host or channel
/// still busy simulates until a cycle starts and ends at rest.  After a
/// shortcut the engine clock, events_executed() and the NetSim
/// counters cover only the simulated cycles: read the cycles' cost from
/// the CycleResult, not from the simulator.
CycleResult run_comm_cycles(sim::NetSim& net, const Placement& placement,
                            Topology topology, std::int64_t bytes,
                            int cycles = 1);

}  // namespace netpart
