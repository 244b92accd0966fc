// Dynamic repartitioning (the paper's Section 7 future work).
//
// "A strategy to handle load imbalance due to processor sharing is also the
//  subject of future work.  One possibility is to dynamically recompute the
//  partition vector in the event of load imbalance."
//
// The adaptive executor implements exactly that: the computation runs in
// chunks of `check_interval` iterations; after each chunk the per-rank busy
// times are inspected, and when the slowest rank exceeds the fastest by
// `imbalance_threshold` the partition vector is recomputed from the
// *observed* per-PDU rates (nominal speeds are stale once another user
// moves in).  Redistribution is not free: the surplus PDUs travel from
// over-loaded to under-loaded ranks through the simulated network, and that
// time is part of the total.
#pragma once

#include <cstdint>
#include <span>

#include "core/partitioner.hpp"
#include "exec/executor.hpp"

namespace netpart {

struct AdaptiveOptions {
  /// Iterations per chunk between imbalance checks.
  int check_interval = 5;
  /// Repartition when max/min per-rank busy time exceeds this.
  double imbalance_threshold = 1.25;
  /// Bytes per PDU, used both for redistribution traffic and the startup
  /// scatter cost (0 = migration is free, not recommended).
  std::int64_t pdu_bytes = 0;
};

struct AdaptiveResult {
  SimTime elapsed;                 ///< total, including redistributions
  SimTime redistribution_time;     ///< time spent moving PDUs
  int repartitions = 0;            ///< how many times Eq. 3 was redone
  PartitionVector final_partition; ///< assignment after the last chunk
  std::uint64_t messages_delivered = 0;
  /// Repartitions forced by a fault notification (a fault plan disturbing
  /// the chunk's window) rather than by the imbalance threshold.
  int fault_responses = 0;
  /// Absolute pipeline time of the first fault-forced repartition
  /// (SimTime::max() if none happened): the detection-to-reaction latency
  /// is this minus the fault's onset time.
  SimTime first_fault_response = SimTime::max();
};

/// How close the adaptive executor's final partition is to the oracle
/// re-partition for the *effective* (post-fault) per-rank speeds.
struct RecoveryReport {
  /// Estimated cycle compute time max_r(A_r * ms_per_pdu_r) of the
  /// achieved partition on the degraded network.
  double achieved_ms = 0.0;
  /// Same for the oracle: proportional_partition of the effective rates.
  double oracle_ms = 0.0;
  /// achieved / oracle; 1.0 is a perfect recovery, the chaos tier asserts
  /// an upper bound on this.
  double ratio = 1.0;
  PartitionVector oracle;
};

/// Score a recovered partition against the oracle re-partition, given the
/// effective per-PDU service time of each rank on the degraded network
/// (nominal per-PDU time x fault slowdown x load slowdown).
RecoveryReport evaluate_recovery(const PartitionVector& achieved,
                                 std::span<const double> ms_per_pdu);

/// Configuration-level analogue of RecoveryReport: scores an achieved
/// processor configuration against the exhaustive oracle over the degraded
/// availability snapshot, on the full T_c objective (not just T_comp).
struct ConfigRecoveryReport {
  double achieved_t_c_ms = 0.0;  ///< estimator's T_c of the achieved config
  double oracle_t_c_ms = 0.0;    ///< T_c of the exhaustive argmin
  /// achieved / oracle; 1.0 means the recovered configuration is optimal
  /// for what is left of the network.
  double ratio = 1.0;
  ProcessorConfig oracle_config;
  std::uint64_t oracle_evaluations = 0;  ///< sweep size (cost of the oracle)

  // Local +/-1 repair, scored as one estimate_moves round with the
  // achieved configuration as its baseline.  One move is the unit of
  // migration-cost-aware adaptation (a repartition that moves one
  // processor's worth of PDUs), so "does any single move help, and how
  // much" is the cheap signal the adaptive loop can act on without paying
  // for the exhaustive oracle.
  double local_best_t_c_ms = 0.0;   ///< best T_c within one +/-1 move
  ProcessorConfig local_best_config;  ///< the move's configuration
  /// True when no single +/-1 move improves the achieved configuration
  /// (always true when achieved == oracle: a global optimum is locally
  /// optimal).
  bool locally_optimal = false;
};

/// Score a post-fault configuration against the exhaustive ground truth.
/// The sweep runs on the estimator's fast path, sharded per
/// `options.threads` (see exhaustive_partition) -- wide snapshots that used
/// to make the oracle impractical in tests are now seconds-scale.
ConfigRecoveryReport evaluate_config_recovery(
    const CycleEstimator& estimator, const AvailabilitySnapshot& snapshot,
    const ProcessorConfig& achieved, const ExhaustiveOptions& options = {});

/// Run `spec` with dynamic repartitioning.  The initial partition should be
/// the static Eq. 3 decomposition; the adaptive loop takes it from there.
AdaptiveResult execute_adaptive(const Network& network,
                                const ComputationSpec& spec,
                                const Placement& placement,
                                const PartitionVector& initial,
                                const ExecutionOptions& exec_options,
                                const AdaptiveOptions& adaptive_options);

/// Reference point: the same chunked execution without repartitioning
/// (isolates the adaptation benefit from chunking artefacts).
AdaptiveResult execute_static_chunked(
    const Network& network, const ComputationSpec& spec,
    const Placement& placement, const PartitionVector& initial,
    const ExecutionOptions& exec_options,
    const AdaptiveOptions& adaptive_options);

}  // namespace netpart
