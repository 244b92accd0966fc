// The general partitioning problem (Section 5).
//
// The published heuristic is biased toward communication locality: clusters
// are ordered by speed, considered one at a time, and abandoned at the
// first partial allocation.  The paper notes that the general problem --
// where extra cross-segment bandwidth can beat locality, and T_c(p) may
// have several minima -- "requires that a system of nonlinear equations be
// solved" and that heuristics for it were still being explored.
//
// This module supplies that exploration: a multi-start local search over
// full configurations.  Starting points are the locality heuristic's
// answer, the all-available configuration, each single-cluster
// configuration, and a few random draws; each start hill-climbs with
// +/-1-processor moves until no move improves T_c.  No unimodality or
// ordering assumption is made, so it also copes with multi-minima curves.
// The cost stays polynomial: O(starts * K * P) evaluations worst case,
// against the exponential exhaustive search.
#pragma once

#include <cstdint>

#include "core/partitioner.hpp"
#include "util/rng.hpp"

namespace netpart {

struct GeneralPartitionOptions {
  /// Random starting configurations in addition to the deterministic ones.
  int random_starts = 4;
  std::uint64_t seed = 1;
  /// Safety valve on objective evaluations.
  std::uint64_t max_evaluations = 100000;
};

/// The best single +/-1 move off the baseline bound in `scratch.delta`.
struct NeighbourMove {
  ClusterId cluster = -1;  ///< -1 when no move improves on the baseline
  int delta = 0;
  double t_c_ms = 0.0;       ///< the move's T_c; the baseline's when none
  std::uint64_t probes = 0;  ///< legal moves scored through estimate_delta
};

/// Score every legal +/-1 move off the baseline bound in `scratch.delta`
/// (whose T_c is `baseline_t_c_ms`) through estimate_delta: clusters
/// ascending, +1 before -1, skipping moves below zero, above
/// `snapshot.available`, or to an empty configuration.  A move is kept only
/// when it beats the best so far by more than 1e-12, so ties keep the
/// earlier probe.  general_partition's climb and the adaptive executor's
/// repair scoring (evaluate_config_recovery) share this scan.
NeighbourMove best_neighbour_move(const CycleEstimator& estimator,
                                  const AvailabilitySnapshot& snapshot,
                                  double baseline_t_c_ms,
                                  EstimatorScratch& scratch);

/// Multi-start local search over the full configuration space.  Never
/// returns a configuration worse than the locality heuristic's (it is one
/// of the starting points).  Each start's +/-1 neighbourhood is scored
/// through the estimator's delta path (estimate_delta against the current
/// climb position), so a probe costs a fraction of a from-scratch
/// evaluation.  Pass a long-lived `scratch` to reuse warm buffers across
/// searches (the bench and service drivers do); nullptr uses a call-local
/// one.
PartitionResult general_partition(
    const CycleEstimator& estimator, const AvailabilitySnapshot& snapshot,
    const GeneralPartitionOptions& options = {},
    EstimatorScratch* scratch = nullptr);

}  // namespace netpart
