// The runtime partitioning algorithm (Section 5 of the paper).
//
// The heuristic orders clusters by instruction rate and considers them
// fastest-first, preferring processor power and communication locality over
// additional cross-segment bandwidth.  Within each cluster it locates the
// minimum of the unimodal T_c(p) curve (Fig. 3) by binary search, assuming
// all previously chosen clusters stay allocated.  A cluster that is not
// fully used ends the search: remote processors cannot pay off when local
// ones already don't.
//
// Worst case the objective is recomputed K*log2(P) times (K clusters,
// P total processors); the evaluations field of the result reports the
// actual count.  Both searches run on the estimator's allocation-free fast
// path (estimate_into); pass a long-lived EstimatorScratch to make repeated
// searches allocation-free end to end.
#pragma once

#include <cstdint>
#include <optional>

#include "core/estimator.hpp"
#include "net/availability.hpp"
#include "topo/placement.hpp"

namespace netpart {

struct PartitionOptions {
  enum class Search {
    Binary,  ///< the paper's O(log P) unimodal search
    Linear,  ///< scan every p (validation / multi-minima safety)
  };
  Search search = Search::Binary;

  /// The paper's locality rule: stop considering further clusters as soon
  /// as a cluster is left partially used.  Disable to keep trying remaining
  /// clusters (an ablation of the heuristic).
  bool stop_at_partial_cluster = true;
};

struct ExhaustiveOptions {
  /// Worker threads for the product-space sweep.  0 = one per hardware
  /// thread; 1 = serial (useful as the determinism reference).  The sweep
  /// is deterministic at every thread count: ties on T_c resolve to the
  /// lowest enumeration index, exactly like the serial scan.
  int threads = 0;

  /// Enumeration indices claimed per steal from the shared cursor.  0 =
  /// auto (space / (8 * threads), clamped to [64, 16384]).  Always rounded
  /// up to the estimator's batch lane width.  Small chunks stress the
  /// work-stealing protocol (useful in tests); large chunks amortise the
  /// atomic claim.  Any value yields the same result -- chunking affects
  /// schedule, not the (t_c, index) merge.
  std::uint64_t chunk = 0;

  /// Nonzero: inject deterministic pseudo-random yields into workers'
  /// claim loops (keyed by seed ^ chunk begin) to perturb steal
  /// interleavings.  Used by the TSan/chaos determinism tests; leave 0 in
  /// production.
  std::uint64_t chaos_yield_seed = 0;
};

struct PartitionResult {
  ProcessorConfig config;        ///< chosen P_i per cluster
  CycleEstimate estimate;        ///< cost breakdown of the chosen config
  Placement placement;           ///< contiguous, fastest cluster first
  std::vector<ClusterId> cluster_order;
  std::uint64_t evaluations = 0; ///< objective evaluations spent searching
};

/// Run the partitioning heuristic.  `snapshot` provides the available
/// processor counts N_i from the cluster managers.  Throws InvalidArgument
/// when no processor is available.  `scratch` (optional) supplies reusable
/// evaluation buffers; callers that search repeatedly (the service's
/// workers, the benches) keep one per thread so steady-state searches do
/// not allocate.
PartitionResult partition(const CycleEstimator& estimator,
                          const AvailabilitySnapshot& snapshot,
                          const PartitionOptions& options = {},
                          EstimatorScratch* scratch = nullptr);

/// Reference partitioner: exhaustively enumerate every configuration
/// (0..N_i per cluster) and return the estimator's argmin.  Exponential in
/// the cluster count; used to validate the heuristic in ablation studies.
/// `options.threads` workers drain the space via chunked work stealing
/// (an atomic cursor over odometer index ranges), each scoring lane groups
/// through estimate_batch with its own scratch; worker minima are merged
/// lexicographically by (T_c, enumeration index), so the chosen
/// configuration is bitwise identical at every thread count and chunk
/// size.
PartitionResult exhaustive_partition(const CycleEstimator& estimator,
                                     const AvailabilitySnapshot& snapshot,
                                     const ExhaustiveOptions& options = {});

/// Baseline configuration for comparisons: every available processor.
ProcessorConfig config_all_available(const AvailabilitySnapshot& snapshot);

}  // namespace netpart
