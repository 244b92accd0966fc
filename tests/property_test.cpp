// Property-based and parameterised sweeps over the core invariants:
//
//  * Eq. 3 partitions always cover the domain and track speed ratios.
//  * T_c(p) along the heuristic fill order is unimodal (Fig. 3), so the
//    binary search finds the same argmin a linear scan does.
//  * The heuristic never beats the exhaustive optimum (sanity of both),
//    and matches it on two-cluster networks.
//  * Estimator monotonicity: more bytes or more iterations never reduce
//    the estimate.
//  * Concurrent searches on one estimator, and the work-stealing sweep,
//    agree with the serial search (ThreadedPartitionSearchTest: the TSan
//    tier selects these by the name `Threaded`).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <thread>
#include <vector>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "core/partitioner.hpp"
#include "dp/rank_kernel.hpp"
#include "exec/executor.hpp"
#include "net/availability.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"

namespace netpart {
namespace {

struct RandomNetCase {
  std::uint64_t seed;
  int clusters;
};

class RandomNetworkProperties
    : public ::testing::TestWithParam<RandomNetCase> {
 protected:
  static CalibrationParams one_d_params() {
    CalibrationParams params;
    params.topologies = {Topology::OneD};
    return params;
  }
};

TEST_P(RandomNetworkProperties, BalancedPartitionInvariants) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  const auto order = clusters_by_speed(net);
  Rng config_rng = rng.stream(1);
  for (int trial = 0; trial < 20; ++trial) {
    ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()), 0);
    int total = 0;
    for (ClusterId c = 0; c < net.num_clusters(); ++c) {
      config[static_cast<std::size_t>(c)] = static_cast<int>(
          config_rng.next_int(0, net.cluster(c).size()));
      total += config[static_cast<std::size_t>(c)];
    }
    if (total == 0) continue;
    const std::int64_t pdus = config_rng.next_int(total, 5000);
    const PartitionVector pv =
        balanced_partition(net, config, order, pdus);
    // Coverage and positivity.
    ASSERT_EQ(pv.total(), pdus);
    ASSERT_NO_THROW(pv.validate(pdus));
    // Speed-proportionality: for any two ranks, work ratio tracks the
    // inverse flop-time ratio within integer rounding.
    int rank = 0;
    std::vector<std::pair<double, std::int64_t>> entries;  // (speed, A)
    for (ClusterId c : order) {
      for (int i = 0; i < config[static_cast<std::size_t>(c)];
           ++i, ++rank) {
        entries.emplace_back(
            1.0 / net.cluster(c).type().flop_time.as_seconds(),
            pv.at(rank));
      }
    }
    for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
      if (entries[i].first > entries[i + 1].first) {
        EXPECT_GE(entries[i].second + 1, entries[i + 1].second);
      }
    }
  }
}

TEST_P(RandomNetworkProperties, TcCurveUnimodalAndSearchesAgree) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));

  for (const int n : {300, 2400}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
    CycleEstimator est(net, cal.db, spec);

    PartitionOptions binary;
    PartitionOptions linear;
    linear.search = PartitionOptions::Search::Linear;
    const PartitionResult rb = partition(est, snap, binary);
    const PartitionResult rl = partition(est, snap, linear);
    // Linear scan is the ground truth for the per-cluster argmin; binary
    // search must agree whenever the curve is unimodal.  Verify both the
    // agreement and (for the first cluster) the unimodality itself.
    EXPECT_EQ(rb.config, rl.config) << "seed " << GetParam().seed;

    const ClusterId first = est.cluster_order().front();
    ProcessorConfig probe(static_cast<std::size_t>(net.num_clusters()), 0);
    std::vector<double> curve;
    for (int p = 1; p <= snap.available[static_cast<std::size_t>(first)];
         ++p) {
      probe[static_cast<std::size_t>(first)] = p;
      curve.push_back(est.estimate(probe).t_c_ms);
    }
    // A unimodal valley has no interior local maximum.
    int local_maxima = 0;
    for (std::size_t i = 1; i + 1 < curve.size(); ++i) {
      if (curve[i] > curve[i - 1] + 1e-9 && curve[i] > curve[i + 1] + 1e-9) {
        ++local_maxima;
      }
    }
    EXPECT_EQ(local_maxima, 0)
        << "T_c(p) should fall then rise (Fig. 3), seed "
        << GetParam().seed;
  }
}

TEST_P(RandomNetworkProperties, HeuristicNeverBeatsExhaustive) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 5);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const PartitionResult heur = partition(est, snap);
  const PartitionResult exh = exhaustive_partition(est, snap);
  EXPECT_GE(heur.estimate.t_c_ms, exh.estimate.t_c_ms - 1e-9);
  EXPECT_LT(heur.evaluations, exh.evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomNetworkProperties,
    ::testing::Values(RandomNetCase{1, 2}, RandomNetCase{2, 2},
                      RandomNetCase{3, 3}, RandomNetCase{4, 3},
                      RandomNetCase{5, 4}, RandomNetCase{6, 4},
                      RandomNetCase{7, 5}, RandomNetCase{8, 5}),
    [](const auto& test_info) {
      return "seed" + std::to_string(test_info.param.seed) + "_k" +
             std::to_string(test_info.param.clusters);
    });

TEST_P(RandomNetworkProperties, PredictionNearMeasuredBestEndToEnd) {
  // The paper's headline property, on networks it never saw: the
  // predicted configuration's measured time is close to the best measured
  // configuration along the heuristic's fill order.
  Rng rng(GetParam().seed ^ 0xE2E);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 5);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1800, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const PartitionResult predicted = partition(est, snap);

  const auto measure = [&](const ProcessorConfig& config) {
    const Placement placement =
        contiguous_placement(net, config, est.cluster_order());
    const PartitionVector part =
        balanced_partition(net, config, est.cluster_order(), 1800);
    return execute(net, spec, placement, part, {}).elapsed.as_millis();
  };

  const double t_predicted = measure(predicted.config);
  // Sweep total processor counts along the fill order.
  double best = t_predicted;
  ProcessorConfig config(snap.available.size(), 0);
  for (ClusterId c : est.cluster_order()) {
    for (int i = 0; i < snap.available[static_cast<std::size_t>(c)]; ++i) {
      ++config[static_cast<std::size_t>(c)];
      best = std::min(best, measure(config));
    }
  }
  EXPECT_LE(t_predicted, 1.25 * best) << "seed " << GetParam().seed;
}

TEST_P(RandomNetworkProperties, FastPathBitwiseMatchesReference) {
  // The closed-form engine must not be "close": every cost field of
  // estimate_into() is the exact same double estimate() produces, on
  // networks and configurations it never saw.
  Rng rng(GetParam().seed ^ 0xFA57);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  const CalibrationResult cal = calibrate(net, one_d_params());
  EstimatorScratch scratch;
  Rng config_rng = rng.stream(2);
  for (const auto& [n, overlap] :
       std::vector<std::pair<int, bool>>{{300, false},
                                         {600, true},
                                         {2400, false}}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
    CycleEstimator est(net, cal.db, spec);
    for (int trial = 0; trial < 25; ++trial) {
      ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()),
                             0);
      int total = 0;
      for (ClusterId c = 0; c < net.num_clusters(); ++c) {
        config[static_cast<std::size_t>(c)] = static_cast<int>(
            config_rng.next_int(0, net.cluster(c).size()));
        total += config[static_cast<std::size_t>(c)];
      }
      if (total == 0) continue;
      const CycleEstimate ref = est.estimate(config);
      const FastEstimate fast = est.estimate_into(config, scratch);
      ASSERT_EQ(ref.t_comp_ms, fast.t_comp_ms) << "seed "
                                               << GetParam().seed;
      ASSERT_EQ(ref.t_comm_ms, fast.t_comm_ms) << "seed "
                                               << GetParam().seed;
      ASSERT_EQ(ref.t_overlap_ms, fast.t_overlap_ms)
          << "seed " << GetParam().seed;
      ASSERT_EQ(ref.t_c_ms, fast.t_c_ms) << "seed " << GetParam().seed;
      ASSERT_EQ(ref.t_elapsed_ms, fast.t_elapsed_ms)
          << "seed " << GetParam().seed;
    }
  }
}

/// Whether `config` sends Eq. 3 through starvation repair, by a test-local
/// oracle of the rounding before proportional_partition's repair loop:
/// per-rank ideal shares over the rank-major weight sum, floors, and the
/// leftover PDUs to the largest fractional parts (stable on ties).  The
/// fast paths serve a configuration in closed form exactly when no rank
/// ends up with zero PDUs here.
bool starves(const Network& net, const CycleEstimator& est,
             const ProcessorConfig& config, std::int64_t pdus) {
  std::vector<double> weights;
  for (ClusterId c : est.cluster_order()) {
    for (int i = 0; i < config[static_cast<std::size_t>(c)]; ++i) {
      weights.push_back(1.0 / net.cluster(c).type().flop_time.as_seconds());
    }
  }
  double weight_sum = 0.0;
  for (const double w : weights) weight_sum += w;
  std::vector<std::int64_t> shares(weights.size());
  std::vector<std::pair<double, std::size_t>> fractional;
  std::int64_t used = 0;
  for (std::size_t r = 0; r < weights.size(); ++r) {
    const double ideal = static_cast<double>(pdus) * weights[r] / weight_sum;
    shares[r] = static_cast<std::int64_t>(ideal);
    used += shares[r];
    fractional.emplace_back(ideal - static_cast<double>(shares[r]), r);
  }
  std::stable_sort(
      fractional.begin(), fractional.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::int64_t k = 0; k < pdus - used; ++k) {
    ++shares[fractional[static_cast<std::size_t>(k)].second];
  }
  return std::find(shares.begin(), shares.end(), 0) != shares.end();
}

/// materialize() against the reference estimate() over random
/// configurations of `net`: four stencil specs per configuration, one of
/// them with num_PDUs just above the rank count (the starvation edge).
/// Every field must be bitwise equal, and each materialisation must count
/// exactly one evaluation on the estimator and none on the scratch.
/// Returns how many checked configurations went through starvation repair.
int expect_materialize_matches_reference(const Network& net,
                                         const CostModelDb& db, Rng& rng,
                                         int trials) {
  EstimatorScratch scratch;
  int starved = 0;
  for (int trial = 0; trial < trials; ++trial) {
    ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()), 0);
    int total = 0;
    for (ClusterId c = 0; c < net.num_clusters(); ++c) {
      config[static_cast<std::size_t>(c)] =
          static_cast<int>(rng.next_int(0, net.cluster(c).size()));
      total += config[static_cast<std::size_t>(c)];
    }
    if (total == 0) continue;
    // The stencil needs n >= 3; below that no rank can starve anyway.
    const int edge = std::max(3, total + static_cast<int>(rng.next_int(0, 2)));
    for (const auto& [n, overlap] :
         std::vector<std::pair<int, bool>>{
             {std::max(300, total), false}, {600 + total, true},
             {2400, false}, {edge, false}}) {
      if (n < total) continue;
      const ComputationSpec spec = apps::make_stencil_spec(
          apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
      const CycleEstimator est(net, db, spec);
      const CycleEstimate want = est.estimate(config);
      const std::uint64_t evals_before = est.evaluations();
      const std::uint64_t scratch_before = scratch.evaluations;
      const CycleEstimate got = est.materialize(config, scratch);
      EXPECT_EQ(est.evaluations(), evals_before + 1);
      EXPECT_EQ(scratch.evaluations, scratch_before);
      EXPECT_EQ(got.config, want.config);
      EXPECT_EQ(got.partition.values(), want.partition.values())
          << "n " << n;
      EXPECT_EQ(got.t_comp_ms, want.t_comp_ms);
      EXPECT_EQ(got.t_comm_ms, want.t_comm_ms);
      EXPECT_EQ(got.t_overlap_ms, want.t_overlap_ms);
      EXPECT_EQ(got.t_c_ms, want.t_c_ms);
      EXPECT_EQ(got.t_elapsed_ms, want.t_elapsed_ms);
      if (starves(net, est, config, n)) ++starved;
    }
  }
  return starved;
}

TEST_P(RandomNetworkProperties, MaterializeBitwiseMatchesReference) {
  // A search's winner is built by materialize(): the fast path's cost
  // fields plus a partition vector expanded from the closed-form shares.
  // It must be estimate()'s result exactly, starvation edge included.
  Rng rng(GetParam().seed ^ 0x3A7E);
  const Network net = presets::random_network(rng, GetParam().clusters, 6);
  const CalibrationResult cal = calibrate(net, one_d_params());
  Rng config_rng = rng.stream(3);
  expect_materialize_matches_reference(net, cal.db, config_rng, 40);
}

/// Three clusters of four whose speeds are four orders of magnitude apart:
/// at the starvation edge the slow clusters' ideal shares round to zero and
/// proportional_partition's donor-stealing repair decides the vector.
Network speed_skew_network() {
  NetworkBuilder b;
  b.bandwidth_bps(10e6);
  b.frame_overhead(SimTime::micros(50));
  b.router_delay(SimTime::nanos(600), SimTime::micros(100));
  for (const double flop_us : {0.01, 1.0, 100.0}) {
    ProcessorType t;
    t.name = "cpu" + std::to_string(flop_us);
    t.flop_time = SimTime::micros(flop_us);
    t.int_time = t.flop_time * 0.5;
    t.comm_per_byte = SimTime::nanos(800);
    t.comm_per_message = SimTime::micros(500);
    b.add_cluster(t.name, t, 4);
  }
  return b.build();
}

TEST(MaterializeFallback, ExtremeSpeedSkewRepairsStarvationBitwise) {
  // At the starvation edge materialize() hands out the vector the repair
  // built, beside the fast path's cost fields -- and still agrees bitwise
  // with the reference.
  const Network net = speed_skew_network();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  Rng rng(0x5CE3);
  EXPECT_GT(expect_materialize_matches_reference(net, cal.db, rng, 60), 0)
      << "no configuration reached starvation repair";
}

TEST_P(RandomNetworkProperties, ParallelExhaustiveMatchesSerial) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 5);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const PartitionResult serial =
      exhaustive_partition(est, snap, {.threads = 1});
  for (const int threads : {2, 3, 4}) {
    const PartitionResult parallel =
        exhaustive_partition(est, snap, {.threads = threads});
    EXPECT_EQ(serial.config, parallel.config)
        << "seed " << GetParam().seed << " threads " << threads;
    EXPECT_EQ(serial.estimate.t_c_ms, parallel.estimate.t_c_ms);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
  }
}

TEST_P(RandomNetworkProperties, BatchBitwiseMatchesScalarAcrossSizes) {
  // Differential lockdown of the lane engine: for every batch size that
  // exercises a distinct code path -- a lone config (scalar remainder
  // only), one lane short of a full batch, exactly kLanes, one past
  // (full batch + remainder tail), and a multi-batch run -- every result
  // must be bitwise identical to estimate_into() on every cost field.
  Rng rng(GetParam().seed ^ 0xBA7C);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  const CalibrationResult cal = calibrate(net, one_d_params());
  Rng config_rng = rng.stream(3);
  constexpr int kLanes = BatchScratch::kLanes;
  for (const auto& [n, overlap] :
       std::vector<std::pair<int, bool>>{{300, false}, {1200, true}}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
    CycleEstimator est(net, cal.db, spec);
    for (const std::size_t count :
         {std::size_t{1}, static_cast<std::size_t>(kLanes - 1),
          static_cast<std::size_t>(kLanes),
          static_cast<std::size_t>(kLanes + 1),
          static_cast<std::size_t>(3 * kLanes + 5)}) {
      std::vector<ProcessorConfig> configs;
      while (configs.size() < count) {
        ProcessorConfig config(
            static_cast<std::size_t>(net.num_clusters()), 0);
        int total = 0;
        for (ClusterId c = 0; c < net.num_clusters(); ++c) {
          config[static_cast<std::size_t>(c)] = static_cast<int>(
              config_rng.next_int(0, net.cluster(c).size()));
          total += config[static_cast<std::size_t>(c)];
        }
        if (total == 0) continue;  // estimate requires >= 1 processor
        configs.push_back(std::move(config));
      }
      EstimatorScratch batch_scratch;
      std::vector<FastEstimate> got(count);
      est.estimate_batch(configs.data(), count, got.data(), batch_scratch);
      EstimatorScratch scalar_scratch;
      for (std::size_t i = 0; i < count; ++i) {
        const FastEstimate want =
            est.estimate_into(configs[i], scalar_scratch);
        ASSERT_EQ(want.t_comp_ms, got[i].t_comp_ms)
            << "seed " << GetParam().seed << " count " << count << " i "
            << i;
        ASSERT_EQ(want.t_comm_ms, got[i].t_comm_ms)
            << "seed " << GetParam().seed << " count " << count << " i "
            << i;
        ASSERT_EQ(want.t_overlap_ms, got[i].t_overlap_ms)
            << "seed " << GetParam().seed << " count " << count << " i "
            << i;
        ASSERT_EQ(want.t_c_ms, got[i].t_c_ms)
            << "seed " << GetParam().seed << " count " << count << " i "
            << i;
        ASSERT_EQ(want.t_elapsed_ms, got[i].t_elapsed_ms)
            << "seed " << GetParam().seed << " count " << count << " i "
            << i;
      }
      // The two paths must also agree on the evaluation count they
      // record; only full lanes may be attributed to the batch engine.
      EXPECT_EQ(batch_scratch.evaluations, scalar_scratch.evaluations);
      EXPECT_LE(batch_scratch.batch_evaluations,
                batch_scratch.evaluations);
    }
  }
}

TEST(BatchEngine, RemainderOnlyTailAndEmptyBatch) {
  // count < kLanes never touches the lane engine's full-batch path; count
  // == 0 must be a no-op.  Both still bitwise-match the scalar engine.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  EstimatorScratch scratch;
  est.estimate_batch(nullptr, 0, nullptr, scratch);
  EXPECT_EQ(scratch.evaluations, 0u);
  EXPECT_EQ(scratch.batch_evaluations, 0u);

  const std::vector<ProcessorConfig> tail = {{1, 0}, {6, 6}, {3, 2}};
  std::vector<FastEstimate> got(tail.size());
  est.estimate_batch(tail.data(), tail.size(), got.data(), scratch);
  EstimatorScratch scalar_scratch;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const FastEstimate want = est.estimate_into(tail[i], scalar_scratch);
    EXPECT_EQ(want.t_c_ms, got[i].t_c_ms) << "i " << i;
    EXPECT_EQ(want.t_elapsed_ms, got[i].t_elapsed_ms) << "i " << i;
  }
  EXPECT_EQ(scratch.evaluations, 3u);
  // A sub-lane-width tail is scalar work by definition.
  EXPECT_EQ(scratch.batch_evaluations, 0u);
}

/// One cluster per group, in group order, with a flop time of 1/w ms: each
/// cluster's Eq. 3 weight 1/S_i is 1000 * weights[g] up to the nanosecond
/// rounding of its flop time.
Network share_network(const std::vector<double>& weights,
                      const std::vector<int>& sizes) {
  NetworkBuilder b;
  b.bandwidth_bps(10e6);
  b.frame_overhead(SimTime::micros(50));
  b.router_delay(SimTime::nanos(600), SimTime::micros(100));
  for (std::size_t g = 0; g < weights.size(); ++g) {
    ProcessorType t;
    t.name = "group" + std::to_string(g);
    t.flop_time = SimTime::millis(1.0 / weights[g]);
    t.int_time = t.flop_time;
    t.comm_per_byte = SimTime::nanos(800);
    t.comm_per_message = SimTime::micros(500);
    b.add_cluster(t.name, t, sizes[g]);
  }
  return b.build();
}

/// A spec with one computation phase and no communication: T_c is Eq. 4's
/// maximum alone, so the partition decides every cost field.
ComputationSpec compute_only_spec(std::int64_t pdus) {
  ComputationPhaseSpec phase;
  phase.name = "compute";
  phase.num_pdus = [pdus] { return pdus; };
  phase.ops_per_pdu = [] { return 100.0; };
  return ComputationSpec("shares", {phase}, {}, 1);
}

TEST(GroupShares, MatchesProportionalPartitionExactly) {
  // Each draw is a network of homogeneous clusters under a computation-only
  // spec, every processor selected.  The winner materialize() expands from
  // lane 0's closed-form shares (the first clamp(remainder - ranks_before,
  // 0, P_g) ranks of a group carry base + 1) must be estimate()'s
  // proportional_partition() vector and cost fields exactly.
  Rng rng(0x5A5A);
  int closed_form = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int groups = static_cast<int>(rng.next_int(1, 6));
    std::vector<double> weights;
    std::vector<int> sizes;
    int total_ranks = 0;
    for (int g = 0; g < groups; ++g) {
      weights.push_back(0.1 + 10.0 * rng.next_double());
      sizes.push_back(static_cast<int>(rng.next_int(1, 5)));
      total_ranks += sizes.back();
    }
    const std::int64_t pdus = rng.next_int(total_ranks, 4000);
    const Network net = share_network(weights, sizes);
    const CostModelDb db(net.num_clusters());
    const ComputationSpec spec = compute_only_spec(pdus);
    const CycleEstimator est(net, db, spec);
    const ProcessorConfig config(sizes.begin(), sizes.end());
    EstimatorScratch scratch;
    const CycleEstimate want = est.estimate(config);
    const CycleEstimate got = est.materialize(config, scratch);
    ASSERT_EQ(got.partition.values(), want.partition.values())
        << "trial " << trial;
    ASSERT_EQ(got.t_comp_ms, want.t_comp_ms) << "trial " << trial;
    ASSERT_EQ(got.t_c_ms, want.t_c_ms) << "trial " << trial;
    ASSERT_EQ(got.t_elapsed_ms, want.t_elapsed_ms) << "trial " << trial;
    if (!starves(net, est, config, pdus)) ++closed_form;
  }
  // The closed form must cover the overwhelming majority of draws.
  EXPECT_GT(closed_form, 350);
}

// Stable-sort oracle for the rank kernel: ranks_before[g] as
// proportional_partition's per-rank stable sort defines it.
std::vector<std::int64_t> ranks_before_oracle(
    const std::vector<double>& frac, const std::vector<int>& sizes) {
  std::vector<int> order(frac.size());
  for (std::size_t g = 0; g < order.size(); ++g) {
    order[g] = static_cast<int>(g);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return frac[a] > frac[b]; });
  std::vector<std::int64_t> out(frac.size());
  std::int64_t before = 0;
  for (const int g : order) {
    out[static_cast<std::size_t>(g)] = before;
    before += sizes[static_cast<std::size_t>(g)];
  }
  return out;
}

TEST(RankKernel, MatchesGeneralOnAllTiePatternsUpTo4) {
  // Exhaustive differential over the sorting network's whole input space
  // modulo magnitude: with 4 lanes, only the pattern of equalities and
  // orderings among the fracs matters, so drawing every frac from a
  // 4-value palette covers every tie pattern (including all-equal), and
  // every size from {0, 1, 3} covers empty and uneven groups.  The
  // network must agree with the quadratic general pass AND the
  // stable-sort oracle exactly.
  const double palette[] = {0.0, 0.25, 0.5, 0.999};
  const int size_palette[] = {0, 1, 3};
  for (int groups = 1; groups <= 4; ++groups) {
    int frac_combos = 1;
    int size_combos = 1;
    for (int g = 0; g < groups; ++g) {
      frac_combos *= 4;
      size_combos *= 3;
    }
    for (int fc = 0; fc < frac_combos; ++fc) {
      std::vector<double> frac(static_cast<std::size_t>(groups));
      int f = fc;
      for (int g = 0; g < groups; ++g, f /= 4) frac[g] = palette[f % 4];
      for (int sc = 0; sc < size_combos; ++sc) {
        std::vector<int> sizes(static_cast<std::size_t>(groups));
        int s = sc;
        for (int g = 0; g < groups; ++g, s /= 3) {
          sizes[g] = size_palette[s % 3];
        }
        std::int64_t kernel[4];
        std::int64_t general[4];
        largest_remainder_ranks(frac.data(), sizes.data(), groups, kernel);
        detail::largest_remainder_ranks_general(frac.data(), sizes.data(),
                                                groups, general);
        const std::vector<std::int64_t> oracle =
            ranks_before_oracle(frac, sizes);
        for (int g = 0; g < groups; ++g) {
          ASSERT_EQ(kernel[g], general[g])
              << "groups " << groups << " fc " << fc << " sc " << sc
              << " g " << g;
          ASSERT_EQ(kernel[g], oracle[static_cast<std::size_t>(g)])
              << "groups " << groups << " fc " << fc << " sc " << sc
              << " g " << g;
        }
      }
    }
  }
}

TEST(RankKernel, AllEqualFracsUseOriginalGroupOrder) {
  // Equal fracs everywhere (the all-equal-remainder pattern): the stable
  // order is the original group order, so ranks_before must be the plain
  // exclusive prefix sum of the sizes.
  const std::vector<double> frac = {0.5, 0.5, 0.5, 0.5};
  const std::vector<int> sizes = {2, 5, 1, 3};
  std::int64_t rb[4];
  largest_remainder_ranks(frac.data(), sizes.data(), 4, rb);
  EXPECT_EQ(rb[0], 0);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb[2], 7);
  EXPECT_EQ(rb[3], 8);
}

TEST(RankKernel, GeneralPathAboveFourGroupsMatchesOracle) {
  // Above 4 groups the entry point must dispatch to the quadratic pass;
  // both must still equal the stable-sort oracle on random draws with
  // forced ties.  Up to 16 groups: planning networks reach 10 clusters,
  // and the lanes take any group count.
  Rng rng(0x9A9A);
  for (int trial = 0; trial < 200; ++trial) {
    const int groups = static_cast<int>(rng.next_int(5, 16));
    std::vector<double> frac(static_cast<std::size_t>(groups));
    std::vector<int> sizes(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g) {
      // Quantised draws force frequent cross-group ties.
      frac[g] = static_cast<double>(rng.next_int(0, 4)) * 0.25;
      sizes[g] = static_cast<int>(rng.next_int(0, 4));
    }
    std::vector<std::int64_t> kernel(static_cast<std::size_t>(groups));
    largest_remainder_ranks(frac.data(), sizes.data(), groups,
                            kernel.data());
    const std::vector<std::int64_t> oracle =
        ranks_before_oracle(frac, sizes);
    for (int g = 0; g < groups; ++g) {
      ASSERT_EQ(kernel[static_cast<std::size_t>(g)],
                oracle[static_cast<std::size_t>(g)])
          << "trial " << trial << " g " << g;
    }
  }
}

TEST(GroupShares, StarvationEdges) {
  // The closed form must refuse exactly when a rank would starve: base 0
  // with fewer extras than ranks.  Both sides of each edge run as one full
  // lane group of estimate_batch: on the closed-form side all 16 lanes are
  // scored by the lane engine, on the starved side every lane replays
  // through estimate_into.  Either way every lane must equal estimate().
  constexpr auto kLanes = static_cast<std::uint64_t>(BatchScratch::kLanes);
  const auto batch_evaluations = [&](const std::vector<double>& w,
                                     const std::vector<int>& sz,
                                     std::int64_t pdus) {
    const Network net = share_network(w, sz);
    const CostModelDb db(net.num_clusters());
    const ComputationSpec spec = compute_only_spec(pdus);
    const CycleEstimator est(net, db, spec);
    const ProcessorConfig config(sz.begin(), sz.end());
    const std::vector<ProcessorConfig> configs(kLanes, config);
    std::vector<FastEstimate> got(configs.size());
    EstimatorScratch scratch;
    est.estimate_batch(configs.data(), configs.size(), got.data(), scratch);
    const CycleEstimate want = est.estimate(config);
    for (const FastEstimate& lane : got) {
      EXPECT_EQ(lane.t_comp_ms, want.t_comp_ms) << "pdus " << pdus;
      EXPECT_EQ(lane.t_comm_ms, want.t_comm_ms) << "pdus " << pdus;
      EXPECT_EQ(lane.t_overlap_ms, want.t_overlap_ms) << "pdus " << pdus;
      EXPECT_EQ(lane.t_c_ms, want.t_c_ms) << "pdus " << pdus;
      EXPECT_EQ(lane.t_elapsed_ms, want.t_elapsed_ms) << "pdus " << pdus;
    }
    EXPECT_EQ(scratch.evaluations, kLanes);
    EXPECT_EQ(scratch.batch_evaluations,
              starves(net, est, config, pdus) ? 0u : kLanes)
        << "pdus " << pdus;
    return scratch.batch_evaluations;
  };
  // pdus == total ranks with equal weights: every rank gets exactly one --
  // no starvation.
  EXPECT_EQ(batch_evaluations({1.0, 1.0}, {3, 3}, 6), kLanes);
  // A tiny-weight group at the remainder boundary: base 0 and the
  // remainder runs out before reaching it.
  EXPECT_EQ(batch_evaluations({1000.0, 0.001}, {2, 2}, 100), 0u);
  // Same weights, enough PDUs that the small group's base rises above 0.
  EXPECT_EQ(batch_evaluations({1000.0, 0.001}, {2, 2}, 4000000), kLanes);
  // Both sides past the 4-group sorting network, on the quadratic pass.
  EXPECT_EQ(batch_evaluations({100.0, 100.0, 100.0, 100.0, 0.001},
                              {1, 1, 1, 1, 2}, 7),
            0u);
  EXPECT_EQ(batch_evaluations({100.0, 100.0, 100.0, 100.0, 0.001},
                              {1, 1, 1, 1, 2}, 4000000),
            kLanes);
}

class DeltaEvalProperties : public RandomNetworkProperties {};

INSTANTIATE_TEST_SUITE_P(
    Seeds, DeltaEvalProperties,
    ::testing::Values(RandomNetCase{11, 2}, RandomNetCase{12, 3},
                      RandomNetCase{13, 4}, RandomNetCase{14, 5}),
    [](const auto& test_info) {
      return "seed" + std::to_string(test_info.param.seed) + "_k" +
             std::to_string(test_info.param.clusters);
    });

/// Walks random +/-1 move sequences on `net` for each (n, overlap) stencil
/// spec and checks every legal estimate_delta() probe against
/// estimate_into() on the moved configuration, bitwise on every cost
/// field, including moves that empty a cluster and moves that activate
/// one.  Each probe counts one evaluation on the scratch, and one delta
/// evaluation unless the moved configuration starves (the closed form
/// refuses it and the probe replays through estimate_into).  Adds the
/// starved probes to `starved`.
void walk_delta_moves(const Network& net, const CostModelDb& db,
                      Rng& config_rng,
                      const std::vector<std::pair<int, bool>>& stencils,
                      const std::string& label, int& starved) {
  for (const auto& [n, overlap] : stencils) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
    CycleEstimator est(net, db, spec);
    EstimatorScratch scratch;
    DeltaScratch& d = scratch.delta;
    EstimatorScratch ref_scratch;

    // Random non-empty starting configuration.
    ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()),
                           0);
    int total = 0;
    while (total == 0) {
      for (ClusterId c = 0; c < net.num_clusters(); ++c) {
        config[static_cast<std::size_t>(c)] = static_cast<int>(
            config_rng.next_int(0, net.cluster(c).size()));
        total += config[static_cast<std::size_t>(c)];
      }
    }
    const FastEstimate bound = est.bind_delta(config, d, scratch);
    const FastEstimate bound_ref = est.estimate_into(config, ref_scratch);
    ASSERT_EQ(bound.t_c_ms, bound_ref.t_c_ms);

    for (int move = 0; move < 60; ++move) {
      // Probe every legal +/-1 around the current baseline.
      std::vector<std::pair<ClusterId, int>> legal;
      for (ClusterId c = 0; c < net.num_clusters(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        for (const int delta : {+1, -1}) {
          const int moved = config[ci] + delta;
          if (moved < 0 || moved > net.cluster(c).size()) continue;
          if (total + delta == 0) continue;
          legal.emplace_back(c, delta);
          const std::uint64_t evals_before = scratch.evaluations;
          const std::uint64_t delta_before = scratch.delta_evaluations;
          const FastEstimate got =
              est.estimate_delta(c, delta, d, scratch);
          ProcessorConfig moved_config = config;
          moved_config[ci] = moved;
          const FastEstimate want =
              est.estimate_into(moved_config, ref_scratch);
          const bool starves_here = starves(net, est, moved_config, n);
          starved += starves_here ? 1 : 0;
          const auto where = [&] {
            return label + " n " + std::to_string(n) + " move " +
                   std::to_string(move) + " c " + std::to_string(c) +
                   " delta " + std::to_string(delta);
          };
          ASSERT_EQ(want.t_comp_ms, got.t_comp_ms) << where();
          ASSERT_EQ(want.t_comm_ms, got.t_comm_ms) << where();
          ASSERT_EQ(want.t_overlap_ms, got.t_overlap_ms) << where();
          ASSERT_EQ(want.t_c_ms, got.t_c_ms) << where();
          ASSERT_EQ(want.t_elapsed_ms, got.t_elapsed_ms) << where();
          ASSERT_EQ(scratch.evaluations, evals_before + 1) << where();
          ASSERT_EQ(scratch.delta_evaluations,
                    delta_before + (starves_here ? 0 : 1))
              << where();
        }
      }
      ASSERT_FALSE(legal.empty());
      // Commit a random legal move and keep walking.
      const auto& [cc, cd] =
          legal[static_cast<std::size_t>(config_rng.next_int(
              0, static_cast<std::int64_t>(legal.size()) - 1))];
      est.commit_delta(cc, cd, d);
      config[static_cast<std::size_t>(cc)] += cd;
      total += cd;
      // After a commit the new baseline must itself score bitwise.
      const FastEstimate rebased = est.estimate_delta(cc, 0, d, scratch);
      const FastEstimate rebased_ref =
          est.estimate_into(config, ref_scratch);
      ASSERT_EQ(rebased.t_c_ms, rebased_ref.t_c_ms)
          << label << " move " << move;
    }
  }
}

TEST_P(DeltaEvalProperties, DeltaBitwiseMatchesFromScratch) {
  // The delta engine's contract: estimate_delta(c, +/-1) returns the
  // exact FastEstimate estimate_into() computes for the moved
  // configuration -- bitwise on every cost field -- across randomized
  // single-move sequences.
  Rng rng(GetParam().seed ^ 0xDE17A);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  Rng config_rng = rng.stream(4);
  int starved = 0;
  walk_delta_moves(net, cal.db, config_rng, {{300, false}, {1200, true}},
                   "seed " + std::to_string(GetParam().seed), starved);
}

TEST(DeltaEval, ExtremeSpeedSkewStarvedMovesReplayBitwise) {
  // The speed-skewed network at the starvation edge (num_PDUs at most a
  // few above the 12 processors): moves whose closed form starves a rank
  // must replay through estimate_into, bitwise, counted as a plain
  // evaluation rather than a delta one.
  const Network net = speed_skew_network();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  Rng config_rng(0xDE5C);
  int starved = 0;
  ASSERT_NO_FATAL_FAILURE(walk_delta_moves(
      net, cal.db, config_rng, {{12, false}, {14, true}, {20, false}},
      "skew", starved));
  EXPECT_GT(starved, 0) << "no probed move reached starvation repair";
}

TEST(DeltaEval, EmptyAndRefillCluster) {
  // The splice cases the randomized walk may or may not hit, pinned
  // deterministically: removing the last processor of a cluster (its
  // group vanishes from the gather) and re-activating an empty cluster
  // (a group is inserted), both bitwise against from-scratch.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  EstimatorScratch scratch;
  DeltaScratch& d = scratch.delta;
  EstimatorScratch ref_scratch;

  est.bind_delta({1, 1}, d, scratch);
  const FastEstimate drained = est.estimate_delta(0, -1, d, scratch);
  const FastEstimate drained_ref = est.estimate_into({0, 1}, ref_scratch);
  EXPECT_EQ(drained.t_c_ms, drained_ref.t_c_ms);
  EXPECT_EQ(drained.t_comm_ms, drained_ref.t_comm_ms);

  est.commit_delta(0, -1, d);  // baseline now {0, 1}
  const FastEstimate refilled = est.estimate_delta(0, +1, d, scratch);
  const FastEstimate refilled_ref = est.estimate_into({1, 1}, ref_scratch);
  EXPECT_EQ(refilled.t_c_ms, refilled_ref.t_c_ms);
  EXPECT_EQ(refilled.t_comm_ms, refilled_ref.t_comm_ms);

  // Draining the only remaining cluster must be rejected, and the
  // capacity edge must hold on the high side too.
  EXPECT_THROW(est.estimate_delta(1, -1, d, scratch), Error);
  est.commit_delta(0, +1, d);  // baseline {1, 1}
  EXPECT_THROW(est.estimate_delta(0, net.cluster(0).size(), d, scratch),
               Error);
}

TEST(DeltaEval, CountsEvaluationsAndRequiresBinding) {
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  EstimatorScratch scratch;
  DeltaScratch& d = scratch.delta;
  EXPECT_THROW(est.estimate_delta(0, 1, d, scratch), Error);

  est.bind_delta({3, 2}, d, scratch);
  const std::uint64_t evals_after_bind = scratch.evaluations;
  est.estimate_delta(0, 1, d, scratch);
  est.estimate_delta(1, -1, d, scratch);
  EXPECT_EQ(scratch.evaluations, evals_after_bind + 2);
  EXPECT_GE(scratch.delta_evaluations, 0u);
}

/// Every cost field of a fast-path result against the reference.
void expect_cost_fields_equal(const FastEstimate& got,
                              const CycleEstimate& want,
                              const std::string& where) {
  EXPECT_EQ(got.t_comp_ms, want.t_comp_ms) << where;
  EXPECT_EQ(got.t_comm_ms, want.t_comm_ms) << where;
  EXPECT_EQ(got.t_overlap_ms, want.t_overlap_ms) << where;
  EXPECT_EQ(got.t_c_ms, want.t_c_ms) << where;
  EXPECT_EQ(got.t_elapsed_ms, want.t_elapsed_ms) << where;
}

TEST(SharedScratch, AlternatingEstimatorsMatchAFreshReference) {
  // A service worker keeps one scratch and builds a new estimator for
  // every cold request, so the scratch's lane buffers and bytes memo
  // outlive each estimator that uses them.  Here one scratch alternates
  // across estimators that differ in cluster count, in num_PDUs (both
  // sides of the direct memo's bound: a 2-D stencil with n >= 257 has
  // more than kBytesDirectMax PDUs) and in bytes_per_message (constant in
  // A_i for the 1-D stencil, a function of A_i for the 2-D one).  Each
  // memo pairs an A_i-dependent spec with a constant one on the same
  // network and num_PDUs, so an entry left by one estimator is read at the
  // same A_i by the other.  Every fast path must stay bitwise equal to a
  // fresh estimator's estimate().
  static_assert(300 * 300 > BatchScratch::kBytesDirectMax);
  CalibrationParams params;
  params.topologies = {Topology::OneD, Topology::TwoD};
  struct Problem {
    Network net;
    CalibrationResult cal;
  };
  std::vector<Problem> problems;
  Rng rng(0x5C7A);
  for (const int k : {3, 5, 4}) {
    Network net = presets::random_network(rng, k, 6);
    CalibrationResult cal = calibrate(net, params);
    problems.push_back({std::move(net), std::move(cal)});
  }
  const auto stencil = [](int n) {
    return apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
  };
  const auto stencil2d = [](int n) {
    return apps::make_stencil2d_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = true});
  };
  struct Case {
    const char* name;
    std::size_t problem;
    ComputationSpec spec;
  };
  const std::vector<Case> cases = {
      {"A: k3 1-D 576 PDUs", 0, stencil(576)},
      {"B: k5 2-D 90000 PDUs", 1, stencil2d(300)},
      {"C: k4 2-D 576 PDUs", 2, stencil2d(24)},
      {"D: k5 1-D 90000 PDUs", 1, stencil(90000)},
      {"E: k3 2-D 576 PDUs", 0, stencil2d(24)},
  };
  std::deque<CycleEstimator> estimators;  // not movable: no vector
  for (const Case& c : cases) {
    estimators.emplace_back(problems[c.problem].net, problems[c.problem].cal.db,
                            c.spec);
  }

  EstimatorScratch scratch;
  Rng config_rng(0x5C7B);
  constexpr std::size_t kBatch = BatchScratch::kLanes + 3;
  for (const std::size_t e : {0, 1, 0, 2, 3, 1, 4, 0, 3, 2, 4, 1}) {
    const Case& c = cases[e];
    const Network& net = problems[c.problem].net;
    const CycleEstimator& est = estimators[e];
    const CycleEstimator fresh(net, problems[c.problem].cal.db, c.spec);
    const auto random_config = [&] {
      ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()), 0);
      while (config_total(config) == 0) {
        for (ClusterId cl = 0; cl < net.num_clusters(); ++cl) {
          config[static_cast<std::size_t>(cl)] = static_cast<int>(
              config_rng.next_int(0, net.cluster(cl).size()));
        }
      }
      return config;
    };
    const std::string where = std::string(c.name) + " estimator " +
                              std::to_string(e);

    for (int i = 0; i < 12; ++i) {
      const ProcessorConfig config = random_config();
      expect_cost_fields_equal(est.estimate_into(config, scratch),
                               fresh.estimate(config), where + " into");
    }

    // One full lane group plus a scalar remainder.
    std::vector<ProcessorConfig> configs;
    while (configs.size() < kBatch) configs.push_back(random_config());
    std::vector<FastEstimate> got(kBatch);
    est.estimate_batch(configs.data(), kBatch, got.data(), scratch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      expect_cost_fields_equal(got[i], fresh.estimate(configs[i]),
                               where + " batch lane " + std::to_string(i));
    }

    const ProcessorConfig baseline = random_config();
    expect_cost_fields_equal(est.bind_delta(baseline, scratch.delta, scratch),
                             fresh.estimate(baseline), where + " bind");
    for (ClusterId cl = 0; cl < net.num_clusters(); ++cl) {
      for (const int delta : {+1, -1}) {
        ProcessorConfig moved = baseline;
        moved[static_cast<std::size_t>(cl)] += delta;
        const int p = moved[static_cast<std::size_t>(cl)];
        if (p < 0 || p > net.cluster(cl).size() || config_total(moved) == 0) {
          continue;
        }
        expect_cost_fields_equal(
            est.estimate_delta(cl, delta, scratch.delta, scratch),
            fresh.estimate(moved),
            where + " delta c " + std::to_string(cl) + " " +
                std::to_string(delta));
      }
    }

    const ProcessorConfig winner = random_config();
    const CycleEstimate want = fresh.estimate(winner);
    const CycleEstimate materialized = est.materialize(winner, scratch);
    EXPECT_EQ(materialized.partition.values(), want.partition.values())
        << where;
    expect_cost_fields_equal(
        FastEstimate{materialized.t_comp_ms, materialized.t_comm_ms,
                     materialized.t_overlap_ms, materialized.t_c_ms,
                     materialized.t_elapsed_ms},
        want, where + " materialize");
  }
}

TEST(EstimatorMonotonicity, MoreWorkNeverCheaper) {
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  double prev = 0.0;
  for (const int n : {60, 120, 300, 600, 1200, 2400}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
    CycleEstimator est(net, cal.db, spec);
    const double tc = est.estimate({6, 6}).t_c_ms;
    EXPECT_GT(tc, prev) << "T_c must grow with problem size at fixed p";
    prev = tc;
  }
}

TEST(EstimatorMonotonicity, ElapsedScalesWithIterations) {
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const auto elapsed = [&](int iters) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = 600, .iterations = iters,
                            .overlap = false});
    CycleEstimator est(net, cal.db, spec);
    return est.estimate({6, 0}).t_elapsed_ms;
  };
  EXPECT_NEAR(elapsed(20), 2.0 * elapsed(10), 1e-9);
}

// Concurrency of the partition-search hot path (runs under the TSan tier:
// suite name matches the sanitizer preset's test filter).
TEST(ThreadedPartitionSearchTest, ConcurrentSearchesAndParallelExhaustive) {
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);

  // One shared estimator, one scratch per thread: heuristic searches and
  // sharded exhaustive sweeps racing on the same estimator must agree with
  // each other and stay data-race free.
  const PartitionResult reference = partition(est, snap);
  const PartitionResult oracle =
      exhaustive_partition(est, snap, {.threads = 1});
  std::vector<std::thread> pool;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      EstimatorScratch scratch;
      for (int i = 0; i < 5; ++i) {
        const PartitionResult r = partition(est, snap, {}, &scratch);
        if (r.config != reference.config) mismatches.fetch_add(1);
      }
      const PartitionResult x =
          exhaustive_partition(est, snap, {.threads = 2 + (t % 2)});
      if (x.config != oracle.config) mismatches.fetch_add(1);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Work-stealing determinism: the chunked sweep must produce a bitwise
// identical winner (config AND T_c) at every thread count and chunk size,
// with chaos yields injected into the claim loops to perturb the steal
// interleavings.  Runs under the TSan tier (suite name matches the
// sanitizer preset's test filter).
TEST(ThreadedPartitionSearchTest, WorkStealingDeterministicAcrossThreads) {
  Rng rng(0xD37E);
  const Network net = presets::random_network(rng, 4, 5);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);

  const PartitionResult serial =
      exhaustive_partition(est, snap, {.threads = 1});
  for (const int threads : {1, 2, 3, 4, 8}) {
    for (const std::uint64_t chunk : {std::uint64_t{0}, std::uint64_t{8},
                                      std::uint64_t{64}}) {
      ExhaustiveOptions options;
      options.threads = threads;
      options.chunk = chunk;  // tiny chunks stress the steal protocol
      options.chaos_yield_seed = 0x5EEDu ^ static_cast<std::uint64_t>(
                                               threads * 131) ^ chunk;
      const PartitionResult got = exhaustive_partition(est, snap, options);
      EXPECT_EQ(serial.config, got.config)
          << "threads " << threads << " chunk " << chunk;
      EXPECT_EQ(serial.estimate.t_c_ms, got.estimate.t_c_ms)
          << "threads " << threads << " chunk " << chunk;
      EXPECT_EQ(serial.estimate.t_elapsed_ms, got.estimate.t_elapsed_ms)
          << "threads " << threads << " chunk " << chunk;
      EXPECT_EQ(serial.evaluations, got.evaluations)
          << "threads " << threads << " chunk " << chunk;
    }
  }
}

}  // namespace
}  // namespace netpart
