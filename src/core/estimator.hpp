// Runtime cost estimation (Eqs. 3-6 of the paper).
//
// For a candidate processor configuration the estimator computes the
// load-balanced partition vector (Eq. 3) and the per-cycle elapsed time
//
//   T_c = T_comp + T_comm - T_overlap                  (Eq. 6)
//   T_comp[p_i] = S_i * computational_complexity * A_i (Eq. 4)
//   T_comm      = from the fitted cost functions       (Eqs. 1, 2, 5)
//   T_overlap   = min(T_comp, T_comm) when the dominant phases overlap
//
// using only the program callbacks and the offline-calibrated cost model --
// no network activity happens at estimation time.
//
// The reference path and three fast paths, all three on one lane engine
// over one closed form of Eqs. 3 and 4:
//
//   * estimate() -- the reference path: materialises the full Eq. 3
//     partition vector and scans it rank by rank, allocating on every
//     call.  It is the oracle the fast paths are tested against; the
//     searches' winners come from materialize() (the fast path's cost
//     fields plus the vector expanded from lane 0's shares, or the vector
//     starvation repair built for those fields).
//   * estimate_into() -- one configuration on lane 0 of the scratch's
//     BatchScratch: the lane engine's Stage A gather, then its kernels (B1,
//     the Eq. 3 divisions; B2, the largest-remainder extras and the Eq. 4
//     maximum; B3, the Eq. 1/2/5 T_comm fold).  A balanced partition hands
//     a homogeneous cluster only the floor or ceiling of its ideal share,
//     so no per-rank vector exists and a steady-state evaluation allocates
//     nothing.  B3 reads the cost model's own flat tables, so a cold
//     request's new estimator is scored without binding anything to the
//     scratch.  Bitwise identical to estimate(), whose T_comm fold
//     (comm_cost_ms) shares no code with B3 -- the property tier asserts
//     this.
//   * estimate_batch() -- many configurations: up to BatchScratch::kLanes
//     of them advance through each stage together over struct-of-arrays
//     scratch, so the long dependent float chains (the Eq. 3 weight sum
//     above all) run as independent per-lane chains the hardware can
//     overlap.  A batch that is not a whole number of lane groups ends on
//     one partial group.
//   * estimate_moves() -- a round of moves off one baseline, the hill
//     climb's and the adaptive repair scorer's unit of work: the baseline
//     is validated and gathered once, with the weight-sum prefix at every
//     active-group boundary, and each move is spliced into its own lane
//     from that gather, then the round is scored like a batch.
//
// Every fast path is bitwise identical to estimate_into() -- the property
// tiers assert this across batch shapes and random move walks.
// estimate_into() borrows lane 0, so it runs only between lane groups.
// Every caller does: the starved-lane replays run after their group is
// scored, and ClusterObjective between whole batches.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "calib/cost_model.hpp"
#include "core/decompose.hpp"
#include "dp/phases.hpp"
#include "net/network.hpp"
#include "topo/placement.hpp"

namespace netpart {

/// Cost breakdown for one processor configuration.
struct CycleEstimate {
  ProcessorConfig config;
  PartitionVector partition;  ///< rank-major in the estimator's cluster order
  double t_comp_ms = 0.0;
  double t_comm_ms = 0.0;
  double t_overlap_ms = 0.0;
  double t_c_ms = 0.0;        ///< objective: estimated elapsed time per cycle
  double t_elapsed_ms = 0.0;  ///< iterations * t_c (startup excluded)
};

/// estimate_into()'s result: the cost breakdown without the materialised
/// partition vector (searches only compare t_c; the winner is materialised
/// once, via materialize(), for the returned PartitionResult).
struct FastEstimate {
  double t_comp_ms = 0.0;
  double t_comm_ms = 0.0;
  double t_overlap_ms = 0.0;
  double t_c_ms = 0.0;
  double t_elapsed_ms = 0.0;
};

/// Struct-of-arrays scratch for CycleEstimator::estimate_batch().  One
/// batch advances up to kLanes candidate configurations through every
/// evaluation stage together; per-stage buffers are lane-interleaved so the
/// per-config dependent chains become independent per-lane chains.  The
/// per-cluster constants live in the estimator and the Eq. 1/2/5
/// coefficients in the cost model; the only per-spec state here is the
/// bytes_per_message memo, whose slots are stamped with the estimator that
/// filled them.  Buffers only grow -- a new estimator on a warm scratch
/// allocates nothing unless it needs more room -- so steady-state
/// evaluations perform zero heap allocations.  estimate_into() runs on
/// lane 0; estimate_moves() keeps its baseline in one spare lane after
/// the kLanes scored ones.
struct BatchScratch {
  /// Lane width: candidate configurations evaluated per SoA pass.  The
  /// per-lane dependent chains (Eq. 3 weight sum, share divisions) are
  /// mutually independent across lanes; sixteen of them keep the divider
  /// and the out-of-order window fed while amortising each stage's loop
  /// setup (bounds loads, pointer arithmetic, the starved-mask fold) over
  /// twice the work of the original 8-wide engine.  The per-lane state the
  /// stages keep live is a handful of scalars, so 16 lanes still fit the
  /// register file comfortably; widening further showed no gain on the
  /// hotpath bench while growing the scratch footprint.
  static constexpr int kLanes = 16;

  // SoA lane state (lane-major, stride = cluster count).  Scalar per-lane
  // values (group counts, totals, weight sums) live on run_lanes()'s
  // stack; only the variable-length per-group state needs heap room.
  std::vector<double> group_w;     ///< active-group Eq. 3 weights
  std::vector<int> group_p;        ///< active-group processor counts
  std::vector<ClusterId> group_c;  ///< active-group cluster ids
  std::vector<std::int64_t> share_base;  ///< Eq. 3 floor shares
  std::vector<double> share_frac;        ///< matching fractional parts
  std::vector<std::int64_t> ranks_before;  ///< rank-kernel output per lane
  std::vector<double> group_bytes; ///< per-group message bytes (as double)
  std::vector<std::int64_t> max_a; ///< per-lane per-group max A_i

  /// Memo for the dominant communication phase's bytes_per_message
  /// callback (a std::function, the one indirect call the lanes cannot
  /// hoist).  Spec callbacks are fixed for the estimator's lifetime, so
  /// caching by A_i is exact.  Every slot carries the binding_id() of the
  /// estimator that filled it; a slot with any other stamp is empty, so a
  /// new estimator starts on an empty memo without touching it.  Up to
  /// kBytesDirectMax PDUs `bytes_direct` is indexed by A_i: one load per
  /// group, no hashing, no collisions.  Above that the direct table would
  /// outgrow the data cache, and the direct-mapped `bytes_hashed` takes
  /// over.
  static constexpr std::int64_t kBytesDirectMax = std::int64_t{1} << 16;
  static constexpr int kBytesMemoBits = 9;
  struct DirectSlot {
    std::uint64_t stamp = 0;
    std::int64_t bytes = 0;
  };
  struct HashedSlot {
    std::uint64_t stamp = 0;
    std::int64_t a = 0;
    std::int64_t bytes = 0;
  };
  std::vector<DirectSlot> bytes_direct;  ///< by A_i; > num_pdus slots
  std::vector<HashedSlot> bytes_hashed;  ///< 1 << kBytesMemoBits slots

  /// A starved move's configuration, staged for its estimate_into replay.
  ProcessorConfig moved;
};

/// One move off a baseline configuration: cluster `cluster` gains `delta`
/// processors (loses them when negative).
struct ConfigMove {
  ClusterId cluster = 0;
  int delta = 0;
};

/// Reusable buffers for CycleEstimator::estimate_into() /
/// estimate_batch() and the search drivers.  Strictly one owner thread at
/// a time -- never share a scratch across threads (the svc worker pool
/// keeps one per worker, the work-stealing exhaustive sweep one per
/// worker).  Buffers grow to the network's cluster count on first use and
/// are then reused: steady-state evaluations perform zero heap
/// allocations.
struct EstimatorScratch {
  /// Fast-path evaluations recorded through this scratch.  Search drivers
  /// read the delta across a search and merge it into the estimator's
  /// evaluations() plus the batched `estimator.evaluations` counter.
  std::uint64_t evaluations = 0;

  /// Of `evaluations`, how many estimate_batch() and estimate_moves()
  /// scored in lanes (starved lanes replay through estimate_into and count
  /// as plain fast-path evaluations).  Drivers fold the delta into the
  /// `estimator.batch_evals` telemetry counter.
  std::uint64_t batch_evaluations = 0;

  std::vector<double> objective_cache;  ///< ClusterObjective memo (NaN=empty)

  /// Lane-parallel engine state (see BatchScratch); estimate_into() runs on
  /// its lane 0.  Embedded here so every existing scratch owner -- svc
  /// workers above all -- reuses warm lane buffers without new plumbing.
  BatchScratch batch;

  /// Candidate/result staging for batched search drivers (start-set
  /// assembly, linear-scan prefills, move rounds).  Reused across
  /// searches.
  std::vector<ProcessorConfig> batch_configs;
  std::vector<ConfigMove> batch_moves;
  std::vector<FastEstimate> batch_results;
};

class CycleEstimator {
 public:
  /// All referenced objects must outlive the estimator.  Dominant phases
  /// and the communication-fit inventory are resolved here, once: the
  /// spec's callbacks must be deterministic for the estimator's lifetime
  /// (they always were in practice -- the searches assume a fixed
  /// objective).
  CycleEstimator(const Network& network, const CostModelDb& db,
                 const ComputationSpec& spec);

  /// Evaluate one configuration (reference path).  Throws InvalidArgument
  /// for configurations that exceed cluster capacities or select nothing.
  CycleEstimate estimate(const ProcessorConfig& config) const;

  /// A search's winner as a full CycleEstimate, built from the fast path:
  /// the cost fields by estimate_into's arithmetic, the partition vector
  /// expanded from lane 0's shares (group g's first
  /// clamp(remainder - ranks_before[g], 0, P_g) ranks get
  /// share_base[g] + 1).  Bitwise identical to estimate(config) on every
  /// field -- the property tier asserts this -- at two allocations (the
  /// config copy and the vector).  When starvation repair engages, the
  /// vector is the one the repair built for the cost fields, so it is
  /// built once there too.  Like estimate(), it counts one evaluation
  /// on evaluations() (not on scratch.evaluations) and emits the
  /// `estimator.estimate` span when telemetry is on.
  CycleEstimate materialize(const ProcessorConfig& config,
                            EstimatorScratch& scratch) const;

  /// Allocation-free evaluation of one configuration through `scratch`.
  /// Bitwise identical to estimate() on every cost field.  Thread-safe for
  /// concurrent calls with distinct scratches; bumps scratch.evaluations
  /// instead of this estimator's counter (callers merge, see
  /// merge_evaluations()).
  FastEstimate estimate_into(const ProcessorConfig& config,
                             EstimatorScratch& scratch) const;

  /// Evaluate `count` configurations through the lane-parallel engine:
  /// groups of up to BatchScratch::kLanes advance through the SoA stages
  /// together, the last one partial when `count` is not a multiple.
  /// out[i] is bitwise identical to estimate_into(configs[i], scratch) on
  /// every cost field, for every batch size including 0 and 1.
  /// Allocation-free once `scratch` has warmed up against this estimator.
  /// Thread-safe for concurrent calls with distinct scratches.
  void estimate_batch(const ProcessorConfig* configs, std::size_t count,
                      FastEstimate* out, EstimatorScratch& scratch) const;

  /// Score a round of moves off `baseline`: out[i] is bitwise identical
  /// to estimate_into() on `baseline` with moves[i] applied, on every cost
  /// field, and each move counts one evaluation.  The baseline is
  /// validated and gathered once; each move's lane copies the baseline's
  /// groups before the moved cluster and resumes the Eq. 3 weight-sum
  /// chain from the baseline's prefix there, then the lanes are scored
  /// like estimate_batch()'s.  `baseline` must be a configuration
  /// estimate_into() accepts; a move throws InvalidArgument exactly where
  /// estimate_into() would on the moved configuration (capacity exceeded,
  /// nothing selected, more ranks than PDUs), and for a cluster id out of
  /// range.  Moves of any size, including ones that empty or activate a
  /// cluster, are supported; a move the closed form cannot serve
  /// (starvation repair) replays through estimate_into.  count == 0 is a
  /// no-op.  Allocation-free once `scratch` has warmed up.
  void estimate_moves(const ProcessorConfig& baseline, const ConfigMove* moves,
                      std::size_t count, FastEstimate* out,
                      EstimatorScratch& scratch) const;

  /// Process-unique identity (never 0): the stamp on the bytes memo slots
  /// this estimator fills.
  std::uint64_t binding_id() const { return binding_id_; }

  /// Clusters ordered fastest-first; partition vectors and placements are
  /// rank-major in this order.
  const std::vector<ClusterId>& cluster_order() const {
    return cluster_order_;
  }

  /// Number of evaluations so far -- the paper's K*log2 P overhead metric
  /// counts these.  estimate() bumps it directly; fast-path evaluations
  /// arrive batched via merge_evaluations().
  std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  /// Fold `n` scratch-counted fast-path evaluations into evaluations().
  void merge_evaluations(std::uint64_t n) const {
    evaluations_.fetch_add(n, std::memory_order_relaxed);
  }

  const ComputationSpec& spec() const { return spec_; }
  const Network& network() const { return network_; }

 private:
  /// estimate() and materialize(): count the evaluation, open the span.
  /// A null scratch selects the reference path.
  CycleEstimate counted_estimate(const ProcessorConfig& config,
                                 EstimatorScratch* scratch) const;
  CycleEstimate estimate_impl(const ProcessorConfig& config) const;
  CycleEstimate materialize_impl(const ProcessorConfig& config,
                                 EstimatorScratch& scratch) const;
  /// estimate_into without the count, on lane 0 of scratch.batch.  When
  /// `partition` is non-null it receives the Eq. 3 vector: lane 0's shares
  /// expanded rank by rank, or the vector starvation repair built.
  FastEstimate evaluate_groups(
      const ProcessorConfig& config, EstimatorScratch& scratch,
      std::optional<PartitionVector>* partition) const;
  /// Grow `batch` to `lanes` lanes of this network's cluster count and to
  /// the bytes memo this spec uses.  Allocates only when the scratch needs
  /// more room than any estimator before gave it.
  void grow_scratch(BatchScratch& batch, std::size_t lanes) const;
  /// One lane's active groups: count, ranks and Eq. 3 weight sum.
  struct LaneGroups {
    int groups = 0;
    int total = 0;
    double weight_sum = 0.0;
  };
  /// The lane engine's driver, shared by estimate_batch and
  /// estimate_moves: `count` candidates in groups of up to
  /// BatchScratch::kLanes lanes.  gather(i, base) is Stage A for candidate
  /// i into the lane at offset `base`; Stage B then runs stage-major over
  /// the group's lanes, and replay(i) scores a lane the closed form cannot
  /// serve.
  template <typename Gather, typename Replay>
  void run_lanes(std::size_t count, FastEstimate* out,
                 EstimatorScratch& scratch, const Gather& gather,
                 const Replay& replay) const;
  // The lane kernels, force-inlined in estimator.cpp and shared by
  // run_lanes and evaluate_groups.  Each works on one lane whose `groups`
  // active groups (`total` ranks) sit at offset `base` of batch's lane
  // buffers.
  /// Stage A: validate `config` (validate_config's checks and messages,
  /// then Eq. 3's rank-count preconditions) and gather its active groups
  /// in placement order.  A move round's baseline (kSpliceIndex) also
  /// keeps, in its lane's share_frac, the weight-sum prefix at each
  /// active-group boundary and, in its ranks_before, each cluster's
  /// splice index: the number of active groups placed before it.
  template <bool kSpliceIndex = false>
  LaneGroups gather_lane(const ProcessorConfig& config, BatchScratch& batch,
                         std::size_t base) const;
  /// Stage A for one move off the baseline gathered at offset `spare`:
  /// validate the moved cluster, copy the baseline's groups before it,
  /// resume the weight-sum chain from the prefix there, and gather the
  /// rest into the lane at `base`.
  LaneGroups splice_move(const ProcessorConfig& baseline,
                         const LaneGroups& gathered, ConfigMove move,
                         BatchScratch& batch, std::size_t spare,
                         std::size_t base) const;
  /// B1: Eq. 3 floor shares and fractions; returns the leftover PDUs.
  std::int64_t lane_shares(BatchScratch& batch, std::size_t base, int groups,
                           int total, double weight_sum) const;
  /// B2: largest-remainder extras into max_a, and Eq. 4's T_comp; returns
  /// true when a rank would starve (the closed form cannot serve the lane).
  bool lane_extras(BatchScratch& batch, std::size_t base, int groups,
                   std::int64_t remainder, double& t_comp) const;
  /// B3: Eq. 1/2/5 T_comm from the lane's max_a, over the cost model's
  /// flat tables.
  double lane_comm(BatchScratch& batch, std::size_t base, int groups,
                   int total) const;
  /// Eq. 6: the fast paths' result from T_comp and T_comm.
  FastEstimate eq6_estimate(double t_comp, double t_comm) const;
  /// The reference path's Eq. 1/2/5 fold, through the cost model's checked
  /// accessors.  No fast path calls it.
  double comm_cost_ms(const ProcessorConfig& config,
                      const PartitionVector& partition) const;
  /// T_comm[C](b, p), with the most expensive fitted cluster as the proxy
  /// for a cluster the dominant topology has no fit for.
  double cluster_cost_ms(ClusterId c, double bytes, double p_param) const;

  /// Per-cluster constants every fast path reads, resolved once by the
  /// constructor.  The doubles are the ones the reference path computes
  /// per rank: the Eq. 3 weight always uses the flop rate, T_comp the
  /// dominant op kind's, and estimate() evaluates s_ms * ops_per_pdu * A
  /// left to right, so folding the s_ms * ops_per_pdu prefix changes no
  /// bit of T_comp.
  struct ClusterConst {
    double inv_s = 0.0;    ///< Eq. 3 weight 1/S_i (flop seconds)
    double comp_ms = 0.0;  ///< Eq. 4 prefix s_ms * ops_per_pdu
    int capacity = 0;      ///< cluster size (validation)
    bool has_fit = false;  ///< dominant-topology comm fit present
  };

  const Network& network_;
  const CostModelDb& db_;
  const ComputationSpec& spec_;
  std::vector<ClusterId> cluster_order_;
  std::vector<ClusterConst> clusters_;  ///< indexed by ClusterId

  // Constructor-resolved invariants of the spec and cost model: the hot
  // path must not re-run phase-dominance scans or callback invocations
  // with fixed results.
  const ComputationPhaseSpec* dominant_comp_ = nullptr;
  std::int64_t num_pdus_ = 0;
  double ops_per_pdu_ = 0.0;
  const CommunicationPhaseSpec* dominant_comm_ = nullptr;  // null: no comm
  Topology comm_topology_ = Topology::OneD;
  bool comm_bw_limited_ = false;
  bool phases_overlap_ = false;
  // The cost model's flat tables for comm_topology_ (see
  // calib/cost_model.hpp), read by B3; null without a communication phase.
  const std::optional<Eq1Fit>* comm_fits_ = nullptr;
  const CostModelDb::PairFits* pair_fits_ = nullptr;
  std::uint64_t binding_id_ = 0;  ///< process-unique, never 0

  mutable std::atomic<std::uint64_t> evaluations_{0};
};

}  // namespace netpart
