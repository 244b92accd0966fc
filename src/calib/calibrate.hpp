// Offline benchmarking of the communication cost functions.
//
// For every (cluster, topology) pair the calibrator runs communication
// cycles (topo/comm_cycle: the executor's neighbour sets on the same
// simulator) over a grid of processor counts and message sizes, and fits
// Eq. 1 by ordinary least squares.
// Router and coercion costs are benchmarked per cluster pair.  This mirrors
// the paper's methodology exactly; only the testbed is a simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "calib/cost_model.hpp"
#include "net/network.hpp"
#include "sim/netsim.hpp"

namespace netpart {

struct CalibrationParams {
  /// Message sizes (bytes) in the benchmark grid; at least two distinct.
  std::vector<std::int64_t> message_sizes = {64, 240, 480, 1200, 2400, 4800};
  /// Cycles averaged per (p, b) sample.  At zero loss a sample's first
  /// cycle starts and ends with the simulator at rest, so run_comm_cycles
  /// simulates it once and counts the other cycles as exact repeats (the
  /// average is that cycle bit for bit); a lossy sample simulates every
  /// cycle and averages them.
  int cycles_per_sample = 3;
  /// Topologies to calibrate; defaults to all supported.
  std::vector<Topology> topologies;
  /// Simulation parameters used during benchmarking (the paper benchmarks
  /// on a lightly loaded network: loss defaults to zero).
  sim::NetSimParams sim_params;
  /// Seed for the benchmarking simulator's random streams.
  std::uint64_t seed = 42;
};

/// One raw benchmark sample, exposed for fit-quality reporting.
struct CommSample {
  ClusterId cluster;
  Topology topology;
  int p;
  std::int64_t bytes;
  double cost_ms;
};

struct CalibrationResult {
  CostModelDb db;
  std::vector<CommSample> samples;
};

/// Benchmark the network and fit all cost functions.
///
/// Every cluster is swept over p = 2..size (clusters of size 1 get a
/// two-point synthetic sweep using a neighbour's shape is NOT attempted:
/// a singleton cluster has no intra-cluster communication and its fit is
/// skipped).  Router and coercion fits are produced for every cluster pair.
///
/// The (cluster, topology) sweeps and the cluster pairs are independent
/// simulations, so they run as tasks on std::thread::hardware_concurrency()
/// workers (the calling thread included), capped by the task count.  Each
/// task runs its samples on one simulator, reset before every sample to a
/// fresh simulator's state on that sample's random stream.  Fits,
/// samples, log lines and the first error are merged in the serial order,
/// so the result is bit-identical at every worker count.
CalibrationResult calibrate(const Network& network,
                            const CalibrationParams& params = {});

/// calibrate() on at most `workers` (>= 1) workers.
CalibrationResult calibrate_with_workers(const Network& network,
                                         const CalibrationParams& params,
                                         int workers);

/// Benchmark only T_router[C_a, C_b]: single-message delivery times across
/// and within clusters, differenced to isolate the router, then fitted
/// against message size.
LineFit benchmark_router(const Network& network, ClusterId a, ClusterId b,
                         const CalibrationParams& params);

/// Benchmark only T_coerce[C_a, C_b]: times the receiver-side conversion
/// routine for b-byte payloads (the paper benchmarks the coercion code
/// standalone the same way).
LineFit benchmark_coercion(const Network& network, ClusterId a, ClusterId b,
                           const CalibrationParams& params);

}  // namespace netpart
