// The NxN iterative five-point stencil (Section 6 of the paper).
//
// Two artefacts live here:
//
//  * Annotation specs for STEN-1 (no overlap) and STEN-2 (border sends
//    overlapped with the grid computation), exactly as annotated in the
//    paper: PDU = row, 1-D topology, communication complexity 4N bytes,
//    computational complexity 5N flops per row.
//
//  * A functional distributed implementation over MMPS: real float rows are
//    exchanged and the grid relaxed, so the decomposition's numerics can be
//    verified against the sequential reference while the simulator measures
//    the same elapsed time the annotation-level executor predicts.
#pragma once

#include <cstdint>
#include <vector>

#include "dp/partition_vector.hpp"
#include "dp/phases.hpp"
#include "net/network.hpp"
#include "sim/netsim.hpp"
#include "topo/placement.hpp"

namespace netpart::sim {
struct FaultPlan;
}  // namespace netpart::sim

namespace netpart::apps {

struct StencilConfig {
  int n = 300;           ///< grid dimension (and PDU count: one PDU per row)
  int iterations = 10;   ///< paper uses 10
  bool overlap = false;  ///< false = STEN-1, true = STEN-2
};

/// Annotated computation for the partitioner and executor.
ComputationSpec make_stencil_spec(const StencilConfig& config);

/// A 9-point stencil with a two-dimensional block decomposition, annotated
/// at cell granularity: the PDU is one grid cell (num_PDUs = N^2), the
/// topology is the 2-D mesh, and the per-message border is one side of a
/// processor's (approximately square) block -- 4*sqrt(A_i) bytes.  This is
/// the paper's "b may depend on A_i" case: unlike the 1-D row code, the
/// message size shrinks as more processors join.
ComputationSpec make_stencil2d_spec(const StencilConfig& config);

/// Initial grid: top boundary row held at 100.0, everything else 0 (a
/// standard heat-plate configuration; any fixed boundary works).
std::vector<float> make_initial_grid(int n);

/// Jacobi relaxation: every interior point becomes the average of its four
/// neighbours; boundary points are fixed.  One full sweep.
void sequential_sweep(std::vector<float>& grid, std::vector<float>& scratch,
                      int n);

/// Run the sequential reference for `iterations` sweeps.
std::vector<float> run_sequential(const StencilConfig& config);

struct DistributedStencilResult {
  std::vector<float> grid;  ///< assembled final grid
  SimTime elapsed;          ///< simulated time for all iterations
  std::uint64_t messages = 0;
};

/// Execute the stencil with real data movement through MMPS on the
/// simulated network.  `partition` assigns rows to ranks (block
/// decomposition, rank-major in placement order).  For STEN-2 the interior
/// rows are computed while the borders are in flight.
///
/// `faults` (optional) injects a fault schedule into the run's simulator;
/// plan times are absolute pipeline times and `fault_origin` is where this
/// run sits on that clock.  Performance faults (slowdowns, flaps,
/// degradations) delay the run but leave the numerics bit-identical to the
/// sequential reference; crashing a placed host would stall the exchange,
/// so plans here should confine crashes to before `fault_origin`.
DistributedStencilResult run_distributed_stencil(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const StencilConfig& config,
    const sim::NetSimParams& sim_params = {},
    const sim::FaultPlan* faults = nullptr,
    SimTime fault_origin = SimTime::zero());

}  // namespace netpart::apps
