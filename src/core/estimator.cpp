#include "core/estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "dp/rank_kernel.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace netpart {

namespace {
/// Process-unique estimator identities (binding_id()).  Stack-allocated
/// estimators can reuse addresses, so pointers cannot tell two apart.
std::atomic<std::uint64_t> g_next_binding_id{1};

/// B3's memoised bytes_per_message lookup (see BatchScratch): a slot
/// stamped by another estimator is empty, so a new estimator needs no
/// reset.  `direct` is the A_i-indexed table when the spec uses it, else
/// null and `hashed` serves.  A search hits far more often than it
/// misses, so the hit is the fall-through path.
inline std::int64_t memoized_bytes(const CommunicationPhaseSpec& comm,
                                   BatchScratch::DirectSlot* direct,
                                   BatchScratch::HashedSlot* hashed,
                                   std::uint64_t id, std::int64_t a) {
  if (direct != nullptr) {
    BatchScratch::DirectSlot& slot = direct[a];
    if (slot.stamp != id) [[unlikely]] {
      slot = {id, comm.bytes_per_message(a)};
    }
    return slot.bytes;
  }
  BatchScratch::HashedSlot& slot =
      hashed[(static_cast<std::uint64_t>(a) * 0x9E3779B97F4A7C15ull) >>
             (64 - BatchScratch::kBytesMemoBits)];
  if (slot.stamp != id || slot.a != a) [[unlikely]] {
    slot = {id, a, comm.bytes_per_message(a)};
  }
  return slot.bytes;
}

/// Eq. 3's preconditions on the selected rank count, checked by every fast
/// path (balanced_partition() checks the same on the reference path).
inline void require_ranks_fit(std::int64_t num_pdus, int total) {
  NP_REQUIRE(total > 0, "configuration must select at least one processor");
  NP_REQUIRE(num_pdus >= total, "cannot give every selected processor a PDU");
}

/// Size every lane buffer to `n` entries: K per lane.
void size_lane_buffers(BatchScratch& batch, std::size_t n) {
  batch.group_w.resize(n);
  batch.group_p.resize(n);
  batch.group_c.resize(n);
  batch.share_base.resize(n);
  batch.share_frac.resize(n);
  batch.ranks_before.resize(n);
  batch.group_bytes.resize(n);
  batch.max_a.resize(n);
}

}  // namespace

CycleEstimator::CycleEstimator(const Network& network, const CostModelDb& db,
                               const ComputationSpec& spec)
    : network_(network),
      db_(db),
      spec_(spec),
      cluster_order_(clusters_by_speed(network)) {
  NP_REQUIRE(db.num_clusters() == network.num_clusters(),
             "cost model was calibrated for a different network");
  dominant_comp_ = &spec.dominant_computation();
  num_pdus_ = dominant_comp_->num_pdus();
  ops_per_pdu_ = dominant_comp_->ops_per_pdu();
  phases_overlap_ = spec.dominant_phases_overlap();
  // Checked contracts (previously assumed): a non-positive PDU count makes
  // Eq. 3 meaningless, and a non-finite or negative op count poisons every
  // T_comp the search compares.  npcheck's spec lint flags these at the
  // source (NP-S003/NP-S005); this is the last line of defence for specs
  // built programmatically.
  NP_REQUIRE(num_pdus_ > 0,
             "estimator: dominant computation must have num_PDUs > 0");
  NP_REQUIRE(std::isfinite(ops_per_pdu_) && ops_per_pdu_ >= 0.0,
             "estimator: ops per PDU must be finite and non-negative");
  NP_REQUIRE(spec.iterations() >= 1,
             "estimator: spec iterations must be >= 1");
  // One allocation, for the per-cluster table: the constructor runs on
  // every cold request the service serves.  Nothing is copied out of the
  // cost model; B3 reads its flat tables in place.
  const auto k = static_cast<std::size_t>(network.num_clusters());
  clusters_.resize(k);
  for (ClusterId c = 0; c < network.num_clusters(); ++c) {
    const ProcessorType& type = network.cluster(c).type();
    ClusterConst& cc = clusters_[static_cast<std::size_t>(c)];
    cc.inv_s = 1.0 / type.flop_time.as_seconds();
    cc.comp_ms = (dominant_comp_->op_kind == OpKind::FloatingPoint
                      ? type.flop_time
                      : type.int_time)
                     .as_millis() *
                 ops_per_pdu_;
    cc.capacity = network.cluster(c).size();
  }
  if (!spec.communication_phases().empty()) {
    dominant_comm_ = &spec.dominant_communication();
    comm_topology_ = dominant_comm_->topology();
    comm_bw_limited_ = is_bandwidth_limited(comm_topology_);
    comm_fits_ = db.comm_fits(comm_topology_);
    pair_fits_ = db.pair_fits();
    for (std::size_t c = 0; c < k; ++c) {
      clusters_[c].has_fit = comm_fits_[c].has_value();
    }
  }
  binding_id_ = g_next_binding_id.fetch_add(1, std::memory_order_relaxed);
}

CycleEstimate CycleEstimator::estimate(const ProcessorConfig& config) const {
  return counted_estimate(config, nullptr);
}

CycleEstimate CycleEstimator::materialize(const ProcessorConfig& config,
                                          EstimatorScratch& scratch) const {
  return counted_estimate(config, &scratch);
}

CycleEstimate CycleEstimator::counted_estimate(
    const ProcessorConfig& config, EstimatorScratch* scratch) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  const auto evaluate = [&] {
    return scratch != nullptr ? materialize_impl(config, *scratch)
                              : estimate_impl(config);
  };
  if (!obs::TelemetryRegistry::global_enabled()) {
    // Disabled-telemetry cost: the one relaxed load above.  The
    // `estimator.evaluations` counter is batched per search by the
    // partitioners instead of bumped here per evaluation.
    return evaluate();
  }
  obs::Span span(obs::TelemetryRegistry::global(), "estimator.estimate",
                 "core");
  CycleEstimate out = evaluate();
  if (span.active()) {
    // The paper's Eq. 1 breakdown: T_c = T_comp + T_comm - T_overlap.
    span.attr("processors", JsonValue(config_total(config)));
    span.attr("t_comp_ms", JsonValue(out.t_comp_ms));
    span.attr("t_comm_ms", JsonValue(out.t_comm_ms));
    span.attr("t_overlap_ms", JsonValue(out.t_overlap_ms));
    span.attr("t_c_ms", JsonValue(out.t_c_ms));
  }
  return out;
}

CycleEstimate CycleEstimator::materialize_impl(
    const ProcessorConfig& config, EstimatorScratch& scratch) const {
  std::optional<PartitionVector> partition;
  const FastEstimate fast = evaluate_groups(config, scratch, &partition);
  return CycleEstimate{config,
                       std::move(*partition),
                       fast.t_comp_ms,
                       fast.t_comm_ms,
                       fast.t_overlap_ms,
                       fast.t_c_ms,
                       fast.t_elapsed_ms};
}

CycleEstimate CycleEstimator::estimate_impl(
    const ProcessorConfig& config) const {
  validate_config(network_, config);

  PartitionVector partition =
      balanced_partition(network_, config, cluster_order_, num_pdus_);

  // Eq. 4: T_comp = S_i * complexity * A_i.  Load balancing makes the
  // products near-equal; integer rounding leaves a spread, and completion
  // is set by the slowest processor, so take the max.
  double t_comp = 0.0;
  {
    int rank = 0;
    for (ClusterId c : cluster_order_) {
      const ProcessorType& type = network_.cluster(c).type();
      const double s_ms = (dominant_comp_->op_kind == OpKind::FloatingPoint
                               ? type.flop_time
                               : type.int_time)
                              .as_millis();
      const int p = config[static_cast<std::size_t>(c)];
      for (int i = 0; i < p; ++i, ++rank) {
        t_comp = std::max(
            t_comp, s_ms * ops_per_pdu_ *
                        static_cast<double>(partition.at(rank)));
      }
    }
  }

  const double t_comm = comm_cost_ms(config, partition);

  // T_overlap: the portion of T_comm hidden behind T_comp when the
  // implementation overlaps the dominant phases (STEN-2).
  const double t_overlap =
      phases_overlap_ ? std::min(t_comp, t_comm) : 0.0;

  CycleEstimate out{config, std::move(partition), t_comp, t_comm, t_overlap,
                    0.0, 0.0};
  out.t_c_ms = t_comp + t_comm - t_overlap;
  out.t_elapsed_ms = out.t_c_ms * spec_.iterations();
  return out;
}

FastEstimate CycleEstimator::estimate_into(const ProcessorConfig& config,
                                           EstimatorScratch& scratch) const {
  ++scratch.evaluations;
  return evaluate_groups(config, scratch, nullptr);
}

FastEstimate CycleEstimator::evaluate_groups(
    const ProcessorConfig& config, EstimatorScratch& scratch,
    std::optional<PartitionVector>* partition) const {
  // The lane engine's kernels on lane 0: Stage A's gather, the Eq. 3 share
  // divisions, the largest-remainder extras with the T_comp maximum, and
  // B3's T_comm.
  BatchScratch& lane = scratch.batch;
  grow_scratch(lane, 1);
  const LaneGroups active = gather_lane(config, lane, 0);
  const int groups = active.groups;
  const std::int64_t leftover =
      lane_shares(lane, 0, groups, active.total, active.weight_sum);
  double t_comp = 0.0;
  const bool starved = lane_extras(lane, 0, groups, leftover, t_comp);
  if (starved) {
    // Starvation repair engaged (extreme speed skew): the closed form
    // cannot reproduce the donor-stealing loop, so materialise the real
    // Eq. 3 vector once and take the per-cluster maxima from it.  Rare and
    // allocating -- correctness over speed on this branch.
    PartitionVector repaired =
        balanced_partition(network_, config, cluster_order_, num_pdus_);
    const int* gp = lane.group_p.data();
    const ClusterId* gc = lane.group_c.data();
    std::int64_t* max_a = lane.max_a.data();
    t_comp = 0.0;
    int rank = 0;
    for (int g = 0; g < groups; ++g) {
      std::int64_t a = 0;
      for (int i = 0; i < gp[g]; ++i, ++rank) {
        a = std::max(a, repaired.at(rank));
      }
      max_a[g] = a;
      t_comp = std::max(
          t_comp, clusters_[static_cast<std::size_t>(gc[g])].comp_ms *
                      static_cast<double>(a));
    }
    if (partition != nullptr) partition->emplace(std::move(repaired));
  } else if (partition != nullptr) {
    // Expand lane 0's shares rank by rank: within a group every rank has
    // the same fractional part, and the stable largest-remainder sort
    // keeps rank order among equals, so the group's extras go to its first
    // ranks -- exactly the vector proportional_partition() returns.
    std::vector<std::int64_t> per_rank;
    per_rank.reserve(static_cast<std::size_t>(active.total));
    for (std::size_t g = 0; g < static_cast<std::size_t>(groups); ++g) {
      const int p = lane.group_p[g];
      const std::int64_t extras =
          std::clamp<std::int64_t>(leftover - lane.ranks_before[g], 0, p);
      for (int i = 0; i < p; ++i) {
        per_rank.push_back(lane.share_base[g] + (i < extras ? 1 : 0));
      }
    }
    partition->emplace(std::move(per_rank));
  }
  return eq6_estimate(t_comp, lane_comm(lane, 0, groups, active.total));
}

FastEstimate CycleEstimator::eq6_estimate(double t_comp,
                                          double t_comm) const {
  // T_overlap: the portion of T_comm hidden behind T_comp when the
  // implementation overlaps the dominant phases (STEN-2).
  const double t_overlap = phases_overlap_ ? std::min(t_comp, t_comm) : 0.0;
  FastEstimate out{t_comp, t_comm, t_overlap, 0.0, 0.0};
  out.t_c_ms = t_comp + t_comm - t_overlap;
  out.t_elapsed_ms = out.t_c_ms * spec_.iterations();
  return out;
}

[[gnu::always_inline]] inline void CycleEstimator::grow_scratch(
    BatchScratch& batch, std::size_t lanes) const {
  const std::size_t n =
      lanes * static_cast<std::size_t>(network_.num_clusters());
  if (batch.max_a.size() < n) [[unlikely]] size_lane_buffers(batch, n);
  if (dominant_comm_ == nullptr) return;
  if (num_pdus_ <= BatchScratch::kBytesDirectMax) {
    const auto slots = static_cast<std::size_t>(num_pdus_) + 1;
    if (batch.bytes_direct.size() < slots) [[unlikely]] {
      // The whole direct range in one allocation, so the table never
      // reallocates; only the slots a spec can index are ever written.
      batch.bytes_direct.reserve(
          static_cast<std::size_t>(BatchScratch::kBytesDirectMax) + 1);
      batch.bytes_direct.resize(slots);
    }
  } else if (batch.bytes_hashed.empty()) [[unlikely]] {
    batch.bytes_hashed.resize(std::size_t{1} << BatchScratch::kBytesMemoBits);
  }
}

// The lane kernels.  Stage A gathers one configuration's active groups to
// offset `base` of the lane buffers (group_w/p/c, placement order) with
// their Eq. 3 weight sum -- from the configuration (gather_lane) or from a
// move round's baseline (splice_move); Stage B (B1-B3) scores them.
// run_lanes runs each kernel across all lanes of a group before starting
// the next (stage-major); estimate_into runs all four on lane 0.
// Force-inlined, so each lane loop compiles as if the body were written
// out in place.

template <bool kSpliceIndex>
[[gnu::always_inline]] inline CycleEstimator::LaneGroups
CycleEstimator::gather_lane(const ProcessorConfig& config, BatchScratch& batch,
                            std::size_t base) const {
  const auto k = static_cast<std::size_t>(network_.num_clusters());
  NP_REQUIRE(config.size() == k, "configuration must name every cluster");
  const int* cfg = config.data();
  const ClusterId* order = cluster_order_.data();
  const ClusterConst* cc = clusters_.data();
  double* gw = &batch.group_w[base];
  int* gp = &batch.group_p[base];
  ClusterId* gc = &batch.group_c[base];
  double* prefix = &batch.share_frac[base];
  std::int64_t* splice = &batch.ranks_before[base];
  int groups = 0;
  int total = 0;
  double sum = 0.0;
  for (std::size_t oi = 0; oi < k; ++oi) {
    const auto c = static_cast<std::size_t>(order[oi]);
    const int p = cfg[c];
    NP_REQUIRE(p >= 0 && p <= cc[c].capacity,
               "configuration exceeds cluster capacity");
    if constexpr (kSpliceIndex) {
      // An idle cluster writes the prefix the next active group reads.
      prefix[groups] = sum;
      splice[c] = groups;
    }
    // Branch-free compaction: always store, advance only on p > 0 (an
    // idle cluster's slot is overwritten by the next active one).  p == 0
    // is data-dependent -- a skip branch here mispredicts constantly.
    const double w = cc[c].inv_s;
    gw[groups] = w;
    gp[groups] = p;
    gc[groups] = order[oi];
    groups += static_cast<int>(p != 0);
    total += p;
    // Eq. 3 weight sum: rank-major repeated adds, proportional_partition's
    // order.
    for (int i = 0; i < p; ++i) sum += w;
  }
  require_ranks_fit(num_pdus_, total);
  return {groups, total, sum};
}

[[gnu::always_inline]] inline CycleEstimator::LaneGroups
CycleEstimator::splice_move(const ProcessorConfig& baseline,
                            const LaneGroups& gathered, ConfigMove move,
                            BatchScratch& batch, std::size_t spare,
                            std::size_t base) const {
  const auto ci = static_cast<std::size_t>(move.cluster);
  NP_REQUIRE(ci < clusters_.size(), "cluster id out of range");
  const int moved_p = baseline[ci] + move.delta;
  NP_REQUIRE(moved_p >= 0 && moved_p <= clusters_[ci].capacity,
             "configuration exceeds cluster capacity");
  const int total = gathered.total + move.delta;
  require_ranks_fit(num_pdus_, total);

  // Groups strictly before the moved cluster in placement order are the
  // baseline's, byte for byte; the Eq. 3 weight-sum chain resumes from the
  // baseline's partial at the splice point, so the full sum is the exact
  // double a from-scratch gather of the moved configuration produces.
  const double* bw = &batch.group_w[spare];
  const int* bp = &batch.group_p[spare];
  const ClusterId* bc = &batch.group_c[spare];
  double* lw = &batch.group_w[base];
  int* lp = &batch.group_p[base];
  ClusterId* lc = &batch.group_c[base];
  const auto j = static_cast<int>(batch.ranks_before[spare + ci]);
  for (int g = 0; g < j; ++g) {
    lw[g] = bw[g];
    lp[g] = bp[g];
    lc[g] = bc[g];
  }
  int groups = j;
  double sum = j < gathered.groups
                   ? batch.share_frac[spare + static_cast<std::size_t>(j)]
                   : gathered.weight_sum;
  if (moved_p > 0) {
    const double w = clusters_[ci].inv_s;
    lw[groups] = w;
    lp[groups] = moved_p;
    lc[groups] = move.cluster;
    ++groups;
    for (int i = 0; i < moved_p; ++i) sum += w;
  }
  for (int g = j + static_cast<int>(baseline[ci] > 0); g < gathered.groups;
       ++g) {
    const double w = bw[g];
    const int p = bp[g];
    lw[groups] = w;
    lp[groups] = p;
    lc[groups] = bc[g];
    ++groups;
    for (int i = 0; i < p; ++i) sum += w;
  }
  return {groups, total, sum};
}

[[gnu::always_inline]] inline std::int64_t CycleEstimator::lane_shares(
    BatchScratch& batch, std::size_t base, int groups, int total,
    double weight_sum) const {
  // B1: the closed-form share divisions.  Every rank of a group computes
  // the identical ideal share num_pdus * w / weight_sum that
  // proportional_partition() computes per rank, so floor and fractional
  // part collapse to one value per group.
  const double* gw = &batch.group_w[base];
  const int* gp = &batch.group_p[base];
  std::int64_t* sb = &batch.share_base[base];
  double* sf = &batch.share_frac[base];
  const double pdus = static_cast<double>(num_pdus_);
  std::int64_t used = 0;
  for (int g = 0; g < groups; ++g) {
    const double ideal = pdus * gw[g] / weight_sum;
    const auto whole = static_cast<std::int64_t>(ideal);
    sb[g] = whole;
    sf[g] = ideal - static_cast<double>(whole);
    used += whole * gp[g];
  }
  const std::int64_t remainder = num_pdus_ - used;
  NP_ASSERT(remainder >= 0 && remainder <= total);
  return remainder;
}

[[gnu::always_inline]] inline bool CycleEstimator::lane_extras(
    BatchScratch& batch, std::size_t base, int groups,
    std::int64_t remainder, double& t_comp) const {
  // B2: largest-remainder extras -> per-group max A_i and starvation, with
  // the Eq. 4 computation maximum folded in (max_a is in a register the
  // moment it is stored; a separate pass would reload it).  The rank
  // counts come from the sorting-network kernel (<= 4 groups; the
  // quadratic |/& pass beyond that, see dp/rank_kernel.hpp) -- the old
  // O(G^2) compare loop here was the dominant term of the batched per-eval
  // profile.
  const int* gp = &batch.group_p[base];
  const ClusterId* gc = &batch.group_c[base];
  const std::int64_t* sb = &batch.share_base[base];
  std::int64_t* rb = &batch.ranks_before[base];
  std::int64_t* max_a = &batch.max_a[base];
  const ClusterConst* cc = clusters_.data();
  largest_remainder_ranks(&batch.share_frac[base], gp, groups, rb);
  int starved = 0;
  t_comp = 0.0;
  for (int g = 0; g < groups; ++g) {
    // extras = clamp(remainder - ranks_before, 0, P_g), but only its sign
    // (an extra exists) and saturation (the group filled up) are
    // consumed, so two comparisons replace the clamp.
    const std::int64_t d = remainder - rb[g];
    starved |= static_cast<int>(sb[g] == 0) & static_cast<int>(d < gp[g]);
    const std::int64_t a = sb[g] + static_cast<std::int64_t>(d > 0);
    max_a[g] = a;
    t_comp = std::max(t_comp, cc[static_cast<std::size_t>(gc[g])].comp_ms *
                                  static_cast<double>(a));
  }
  return starved != 0;
}

[[gnu::always_inline]] inline double CycleEstimator::lane_comm(
    BatchScratch& batch, std::size_t base, int groups, int total) const {
  // B3: Eq. 2/5 communication -- the worst synchronous cluster, then the
  // boundary router/coercion penalties -- over the cost model's flat
  // tables.  Same values in the same order as comm_cost_ms.
  if (dominant_comm_ == nullptr || total <= 1) return 0.0;
  const auto k = static_cast<std::size_t>(network_.num_clusters());
  const Topology topo = comm_topology_;
  const bool bw_limited = comm_bw_limited_;
  // Locals, so the memo's stores cannot force reloads of these members.
  const std::uint64_t id = binding_id_;
  BatchScratch::DirectSlot* direct =
      num_pdus_ <= BatchScratch::kBytesDirectMax ? batch.bytes_direct.data()
                                                 : nullptr;
  BatchScratch::HashedSlot* hashed = batch.bytes_hashed.data();
  const std::optional<Eq1Fit>* fits = comm_fits_;
  const CostModelDb::PairFits* pairs = pair_fits_;
  const int* gp = &batch.group_p[base];
  const ClusterId* gc = &batch.group_c[base];
  const std::int64_t* max_a = &batch.max_a[base];
  double* gb = &batch.group_bytes[base];
  const ClusterConst* cc = clusters_.data();
  double worst = 0.0;
  for (int g = 0; g < groups; ++g) {
    const double bytes = static_cast<double>(
        memoized_bytes(*dominant_comm_, direct, hashed, id, max_a[g]));
    gb[g] = bytes;
    int adj = 0;
    if (groups > 1) {
      switch (topo) {
        case Topology::OneD:
        case Topology::TwoD:
          adj = (g > 0 ? 1 : 0) + (g + 1 < groups ? 1 : 0);
          break;
        case Topology::Ring:
          adj = 2;
          break;
        case Topology::Tree:
        case Topology::Broadcast:
          adj = g == 0 ? groups - 1 : 1;
          break;
      }
    }
    const double p_param =
        (bw_limited ? static_cast<double>(total)
                    : static_cast<double>(gp[g])) +
        static_cast<double>(adj);
    const auto c = static_cast<std::size_t>(gc[g]);
    double cost;
    if (cc[c].has_fit) {
      // db_.comm_ms over the fit in place: same p <= 1 early-out, same
      // |Eq. 1| evaluation, without the range and presence checks.
      cost = p_param <= 1.0 ? 0.0
                            : std::abs(fits[c]->evaluate(bytes, p_param));
    } else {
      cost = cluster_cost_ms(gc[g], bytes, p_param);  // proxy (rare)
    }
    worst = std::max(worst, cost);
  }
  double penalty = 0.0;
  for (int g = 0; g + 1 < groups; ++g) {
    const ClusterId ca = gc[g];
    const ClusterId cb = gc[g + 1];
    // bytes_per_message(max(a, b)) is the bytes of whichever neighbour has
    // the larger max A_i -- already computed (and cast) above.
    const double bytes = max_a[g] >= max_a[g + 1] ? gb[g] : gb[g + 1];
    const CostModelDb::PairFits& pair =
        pairs[static_cast<std::size_t>(ca) * k + static_cast<std::size_t>(cb)];
    const double router =
        pair.has_router
            ? std::max(0.0, pair.router.intercept + pair.router.slope * bytes)
            : db_.router_ms(ca, cb, bytes);  // throws exactly like scalar
    const double coerce =
        std::max(0.0, pair.coerce.intercept + pair.coerce.slope * bytes);
    penalty = std::max(penalty, router + coerce);
  }
  return worst + penalty;
}

template <typename Gather, typename Replay>
void CycleEstimator::run_lanes(std::size_t count, FastEstimate* out,
                               EstimatorScratch& scratch, const Gather& gather,
                               const Replay& replay) const {
  BatchScratch& batch = scratch.batch;
  constexpr int kLanes = BatchScratch::kLanes;
  const auto k = static_cast<std::size_t>(network_.num_clusters());
  for (std::size_t first = 0; first < count; first += kLanes) {
    const int n = static_cast<int>(
        std::min(count - first, static_cast<std::size_t>(kLanes)));
    FastEstimate* lane_out = out + first;

    // Stage A: one gather per lane.  Integer work plus the weight-sum
    // chain; the float-heavy stages follow stage-major.
    int lane_groups[kLanes];
    int lane_total[kLanes];
    double weight_sum[kLanes];
    for (int lane = 0; lane < n; ++lane) {
      const LaneGroups g = gather(first + static_cast<std::size_t>(lane),
                                  static_cast<std::size_t>(lane) * k);
      lane_groups[lane] = g.groups;
      lane_total[lane] = g.total;
      weight_sum[lane] = g.weight_sum;
    }

    // Stage B runs stage-major through the lane kernels: all lanes advance
    // through each small stage together, so the per-lane dependency chains
    // (share divisions, rank tiebreaks, the Eq. 4/5 max folds) sit side by
    // side inside the out-of-order window.  Lane-major Stage B -- one
    // lane's full ~hundred-instruction chain retiring before the next lane
    // starts -- leaves the window holding a single serial chain and
    // measures ~40% slower on the hotpath bench.
    std::int64_t lane_remainder[kLanes];
    double lane_tcomp[kLanes];
    unsigned starved_mask = 0;
    for (int lane = 0; lane < n; ++lane) {
      lane_remainder[lane] =
          lane_shares(batch, static_cast<std::size_t>(lane) * k,
                      lane_groups[lane], lane_total[lane], weight_sum[lane]);
    }
    for (int lane = 0; lane < n; ++lane) {
      const bool starved = lane_extras(
          batch, static_cast<std::size_t>(lane) * k, lane_groups[lane],
          lane_remainder[lane], lane_tcomp[lane]);
      starved_mask |= static_cast<unsigned>(starved) << lane;
    }
    // Starved lanes skip B3 -- their shares are invalid.
    int scored = 0;
    for (int lane = 0; lane < n; ++lane) {
      if (((starved_mask >> lane) & 1u) != 0) continue;
      const double t_comm =
          lane_comm(batch, static_cast<std::size_t>(lane) * k,
                    lane_groups[lane], lane_total[lane]);
      lane_out[lane] = eq6_estimate(lane_tcomp[lane], t_comm);
      ++scored;
    }
    scratch.evaluations += static_cast<std::uint64_t>(scored);
    scratch.batch_evaluations += static_cast<std::uint64_t>(scored);

    // Starved lanes (extreme speed skew, rare): the closed form cannot
    // reproduce the donor-stealing repair, so replay through the scalar
    // path, which counts itself.  It runs on lane 0, whose group is done.
    for (; starved_mask != 0; starved_mask &= starved_mask - 1) {
      const auto lane =
          static_cast<std::size_t>(std::countr_zero(starved_mask));
      lane_out[lane] = replay(first + lane);
    }
  }
}

void CycleEstimator::estimate_batch(const ProcessorConfig* configs,
                                    std::size_t count, FastEstimate* out,
                                    EstimatorScratch& scratch) const {
  grow_scratch(scratch.batch, BatchScratch::kLanes);
  run_lanes(
      count, out, scratch,
      [&](std::size_t i, std::size_t base) {
        return gather_lane(configs[i], scratch.batch, base);
      },
      [&](std::size_t i) { return estimate_into(configs[i], scratch); });
}

void CycleEstimator::estimate_moves(const ProcessorConfig& baseline,
                                    const ConfigMove* moves, std::size_t count,
                                    FastEstimate* out,
                                    EstimatorScratch& scratch) const {
  if (count == 0) return;
  // The baseline lives in a spare lane after the kLanes scored ones, so
  // one gather serves every lane group of the round.
  BatchScratch& batch = scratch.batch;
  grow_scratch(batch, BatchScratch::kLanes + 1);
  const std::size_t spare = static_cast<std::size_t>(BatchScratch::kLanes) *
                            static_cast<std::size_t>(network_.num_clusters());
  const LaneGroups gathered = gather_lane<true>(baseline, batch, spare);
  run_lanes(
      count, out, scratch,
      [&](std::size_t i, std::size_t base) {
        return splice_move(baseline, gathered, moves[i], batch, spare, base);
      },
      [&](std::size_t i) {
        batch.moved = baseline;
        batch.moved[static_cast<std::size_t>(moves[i].cluster)] +=
            moves[i].delta;
        return estimate_into(batch.moved, scratch);
      });
}

double CycleEstimator::cluster_cost_ms(ClusterId c, double bytes,
                                       double p_param) const {
  if (clusters_[static_cast<std::size_t>(c)].has_fit) {
    return db_.comm_ms(c, comm_topology_, bytes, p_param);
  }
  // A singleton cluster has no intra-cluster benchmark (nothing to
  // measure), yet its segment still carries router traffic when it joins
  // a spanning configuration; fall back to the most expensive fitted
  // cluster as a conservative proxy.
  bool any_fit = false;
  double proxy = 0.0;
  for (ClusterId other = 0; other < network_.num_clusters(); ++other) {
    if (!clusters_[static_cast<std::size_t>(other)].has_fit) continue;
    any_fit = true;
    proxy = std::max(proxy, db_.comm_ms(other, comm_topology_, bytes,
                                        p_param));
  }
  NP_REQUIRE(any_fit,
             "no communication fit for any cluster; run calibration first");
  return proxy;
}

double CycleEstimator::comm_cost_ms(const ProcessorConfig& config,
                                    const PartitionVector& partition) const {
  if (dominant_comm_ == nullptr) return 0.0;
  const int total_p = config_total(config);
  if (total_p <= 1) return 0.0;
  const CommunicationPhaseSpec& comm = *dominant_comm_;

  // Active clusters in placement order, with the max A_i of their ranks
  // (message sizes may depend on the assignment).
  std::vector<ClusterId> clusters;
  std::vector<int> sizes;
  std::vector<std::int64_t> max_a;
  {
    int rank = 0;
    for (ClusterId c : cluster_order_) {
      const int p = config[static_cast<std::size_t>(c)];
      if (p == 0) continue;
      std::int64_t cluster_max = 0;
      for (int i = 0; i < p; ++i, ++rank) {
        cluster_max = std::max(cluster_max, partition.at(rank));
      }
      clusters.push_back(c);
      sizes.push_back(p);
      max_a.push_back(cluster_max);
    }
  }
  const std::size_t num_groups = clusters.size();
  NP_ASSERT(num_groups > 0);

  // Router stations: under contiguous placement, messages cross between
  // consecutive active clusters (chain-like topologies) or from the root
  // cluster to every other (tree/broadcast rooted at rank 0).
  const auto adjacency = [&](std::size_t k) -> int {
    if (num_groups == 1) return 0;
    switch (comm_topology_) {
      case Topology::OneD:
      case Topology::TwoD:
        return (k > 0 ? 1 : 0) + (k + 1 < num_groups ? 1 : 0);
      case Topology::Ring:
        // Wrap-around closes the chain: every active cluster sits between
        // two boundaries.
        return 2;
      case Topology::Tree:
      case Topology::Broadcast:
        return k == 0 ? static_cast<int>(num_groups) - 1 : 1;
    }
    return 0;
  };

  // Eq. 2 / Section 3: the synchronous cost is the max over clusters; each
  // cluster's cost is evaluated at its processor count plus the routers
  // contending on its segment (the "(b, p+1)" rule).  Bandwidth-limited
  // topologies see the total offered load instead of the private one.
  double worst = 0.0;
  for (std::size_t k = 0; k < num_groups; ++k) {
    const double bytes =
        static_cast<double>(comm.bytes_per_message(max_a[k]));
    const double p_param =
        (comm_bw_limited_ ? static_cast<double>(total_p)
                          : static_cast<double>(sizes[k])) +
        static_cast<double>(adjacency(k));
    worst = std::max(worst, cluster_cost_ms(clusters[k], bytes, p_param));
  }

  // Per-message router and coercion penalties on the boundary exchanges.
  double penalty = 0.0;
  for (std::size_t k = 0; k + 1 < num_groups; ++k) {
    const ClusterId ca = clusters[k];
    const ClusterId cb = clusters[k + 1];
    const double bytes = static_cast<double>(
        comm.bytes_per_message(std::max(max_a[k], max_a[k + 1])));
    penalty = std::max(penalty, db_.router_ms(ca, cb, bytes) +
                                    db_.coerce_ms(ca, cb, bytes));
  }

  return worst + penalty;
}

}  // namespace netpart
