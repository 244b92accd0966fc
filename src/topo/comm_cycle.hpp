// Synchronous communication-cycle runner.
//
// One cycle: every rank initiates an asynchronous send of `bytes` to each of
// its send-neighbours, then blocks until it has received from each of its
// recv-neighbours.  The runner executes the cycle on the network simulator
// and reports per-rank and maximum elapsed times.  The same program is used
// for offline calibration (Section 3 of the paper) and inside the SPMD
// executor, so the calibrated model measures exactly the code path the
// application runs.
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
/// the runner's frame, so if an event throws during the run, discard the
/// simulator: it still holds the cycle's messages.
CycleResult run_comm_cycles(sim::NetSim& net, const Placement& placement,
                            Topology topology, std::int64_t bytes,
                            int cycles = 1);

}  // namespace netpart
