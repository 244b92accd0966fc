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

/// The best single +/-1 move off a baseline configuration.
struct NeighbourMove {
  ClusterId cluster = -1;  ///< -1 when no move improves on the baseline
  int delta = 0;
  double t_c_ms = 0.0;       ///< the move's T_c; the baseline's when none
  std::uint64_t probes = 0;  ///< legal moves scored
};

/// Score every legal +/-1 move off `baseline` (whose T_c is
/// `baseline_t_c_ms`) in one CycleEstimator::estimate_moves round, probed
/// in this order: clusters ascending, +1 before -1, skipping moves below
/// zero, above `snapshot.available`, or to an empty configuration.  A move
/// is kept only when it beats the best so far by more than 1e-12, so ties
/// keep the earlier probe.  general_partition's climb and the adaptive
/// executor's repair scoring (evaluate_config_recovery) share this scan.
///
/// A climb passes the move that reached the baseline as `arrived_by`, and
/// the scan skips its reverse: the configuration the climb just left lost
/// to the baseline by more than 1e-12, and estimate_moves is bitwise a
/// pure function of the configuration, so probing it again can never win.
/// The default (cluster -1) skips nothing.
NeighbourMove best_neighbour_move(const CycleEstimator& estimator,
                                  const AvailabilitySnapshot& snapshot,
                                  const ProcessorConfig& baseline,
                                  double baseline_t_c_ms,
                                  EstimatorScratch& scratch,
                                  const NeighbourMove& arrived_by = {});

/// Multi-start local search over the full configuration space.  Never
/// returns a configuration worse than the locality heuristic's (it is one
/// of the starting points).  Each climb round scores the current
/// position's whole +/-1 neighbourhood as one estimate_moves round, so
/// the baseline is gathered once per round and the moves share lane
/// groups.  Pass a long-lived `scratch` to reuse warm buffers across
/// searches (the bench and service drivers do); nullptr uses a call-local
/// one.
PartitionResult general_partition(
    const CycleEstimator& estimator, const AvailabilitySnapshot& snapshot,
    const GeneralPartitionOptions& options = {},
    EstimatorScratch* scratch = nullptr);

}  // namespace netpart
