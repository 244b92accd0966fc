// Tests for the paper's core contribution: Eq. 3 decomposition, the Eq. 4-6
// estimator, and the partitioning heuristic.
#include <gtest/gtest.h>

#include "apps/gauss.hpp"
#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "core/estimator.hpp"
#include "core/partitioner.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

const CostModelDb& testbed_db() {
  static const CalibrationResult cal = [] {
    CalibrationParams params;
    params.topologies = {Topology::OneD, Topology::Broadcast};
    return calibrate(testbed(), params);
  }();
  return cal.db;
}

AvailabilitySnapshot all_idle(const Network& net) {
  return gather_availability(net, make_managers(net, AvailabilityPolicy{}));
}

// -------------------------------------------------------------- Eq. 3

TEST(DecomposeTest, PaperRatios) {
  // Sparc2 is 2x the IPC: with (P1, P2) = (6, 4) and N = 600 the paper
  // gives A1 = 2N/(2 P1 + P2) = 75 and A2 = 38 (rounded).
  const PartitionVector pv = balanced_partition(
      testbed(), {6, 4}, clusters_by_speed(testbed()), 600);
  EXPECT_EQ(pv.at(0), 75);
  EXPECT_EQ(pv.at(5), 75);
  EXPECT_NEAR(static_cast<double>(pv.at(6)), 37.5, 0.5);
  EXPECT_EQ(pv.total(), 600);
}

TEST(DecomposeTest, SumsToNumPdusForAllConfigs) {
  for (int p1 = 0; p1 <= 6; ++p1) {
    for (int p2 = 0; p2 <= 6; ++p2) {
      if (p1 + p2 == 0) continue;
      for (std::int64_t n : {60, 301, 599, 1200}) {
        const PartitionVector pv = balanced_partition(
            testbed(), {p1, p2}, clusters_by_speed(testbed()), n);
        EXPECT_EQ(pv.total(), n);
        EXPECT_NO_THROW(pv.validate(n));
      }
    }
  }
}

TEST(DecomposeTest, FasterProcessorsGetMoreWork) {
  const PartitionVector pv = balanced_partition(
      testbed(), {3, 3}, clusters_by_speed(testbed()), 999);
  for (int sparc = 0; sparc < 3; ++sparc) {
    for (int ipc = 3; ipc < 6; ++ipc) {
      EXPECT_GT(pv.at(sparc), pv.at(ipc));
    }
  }
  // The 2:1 speed ratio shows up as a 2:1 work ratio.
  EXPECT_NEAR(static_cast<double>(pv.at(0)) / static_cast<double>(pv.at(3)),
              2.0, 0.05);
}

TEST(DecomposeTest, EveryRankGetsWorkEvenWhenScarce) {
  // 7 PDUs over 7 ranks with extreme speed skew: nobody may be starved.
  NetworkBuilder b;
  ProcessorType fast = presets::sparc2();
  fast.flop_time = SimTime::micros(0.01);
  b.add_cluster("fast", fast, 1);
  b.add_cluster("slow", presets::sun_ipc(), 6);
  const Network net = b.build();
  const PartitionVector pv =
      balanced_partition(net, {1, 6}, clusters_by_speed(net), 7);
  for (int r = 0; r < 7; ++r) {
    EXPECT_GE(pv.at(r), 1);
  }
  EXPECT_EQ(pv.total(), 7);
}

TEST(DecomposeTest, EqualPartitionSpreadsRemainder) {
  const PartitionVector pv = equal_partition(5, 12);
  EXPECT_EQ(pv.values(), (std::vector<std::int64_t>{3, 3, 2, 2, 2}));
  EXPECT_THROW(equal_partition(5, 4), InvalidArgument);
}

// ----------------------------------------------------------- estimator

TEST(EstimatorTest, TcompMatchesEq4) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const CycleEstimate e = est.estimate({6, 0});
  // T_comp = S_i * 5N * A_i = 0.0003 ms * 6000 * 200 = 360 ms.
  EXPECT_NEAR(e.t_comp_ms, 360.0, 1.0);
  EXPECT_GT(e.t_comm_ms, 0.0);
  EXPECT_DOUBLE_EQ(e.t_overlap_ms, 0.0);
  EXPECT_DOUBLE_EQ(e.t_c_ms, e.t_comp_ms + e.t_comm_ms);
  EXPECT_DOUBLE_EQ(e.t_elapsed_ms, 10 * e.t_c_ms);
}

TEST(EstimatorTest, OverlapUsesMinRule) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = true});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const CycleEstimate e = est.estimate({6, 0});
  EXPECT_DOUBLE_EQ(e.t_overlap_ms, std::min(e.t_comp_ms, e.t_comm_ms));
  EXPECT_DOUBLE_EQ(e.t_c_ms, e.t_comp_ms + e.t_comm_ms - e.t_overlap_ms);
}

TEST(EstimatorTest, SingleProcessorHasNoCommCost) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 300, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const CycleEstimate e = est.estimate({1, 0});
  EXPECT_DOUBLE_EQ(e.t_comm_ms, 0.0);
  EXPECT_NEAR(e.t_comp_ms, 0.0003 * 1500 * 300, 0.5);
}

TEST(EstimatorTest, CrossClusterAddsRouterPenalty) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  // The paper's rule: spanning clusters costs max(T_C1(b,p+1), T_C2(b,p+1))
  // + T_router, which exceeds the single-cluster cost at the same per-
  // cluster processor counts.
  const double both = est.estimate({6, 6}).t_comm_ms;
  const double sparc_only = est.estimate({6, 0}).t_comm_ms;
  EXPECT_GT(both, sparc_only);
}

TEST(EstimatorTest, CoercionPenaltyAppearsOnMixedFormats) {
  const Network mixed = presets::coercion_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(mixed, params);
  ASSERT_TRUE(cal.db.has_coerce(0, 1));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(mixed, cal.db, spec);
  const double bytes = 2400;
  EXPECT_GT(cal.db.coerce_ms(0, 1, bytes), 0.0);
  // The spanning estimate includes coercion: it must exceed the same
  // estimate recomputed with the coercion fit ignored.
  const CycleEstimate spanning = est.estimate({6, 2});
  EXPECT_GT(spanning.t_comm_ms,
            est.estimate({6, 0}).t_comm_ms);
}

TEST(EstimatorTest, IntegerOpKindUsesIntegerRate) {
  // Same shape, integer instruction rate: Sparc2 int_time is half its
  // flop_time, so T_comp halves.
  ComputationPhaseSpec float_phase;
  float_phase.name = "f";
  float_phase.num_pdus = [] { return std::int64_t{600}; };
  float_phase.ops_per_pdu = [] { return 1000.0; };
  float_phase.op_kind = OpKind::FloatingPoint;
  ComputationPhaseSpec int_phase = float_phase;
  int_phase.op_kind = OpKind::Integer;

  const ComputationSpec fspec("float-app", {float_phase}, {}, 5);
  const ComputationSpec ispec("int-app", {int_phase}, {}, 5);
  CycleEstimator fest(testbed(), testbed_db(), fspec);
  CycleEstimator iest(testbed(), testbed_db(), ispec);
  const double f = fest.estimate({4, 0}).t_comp_ms;
  const double i = iest.estimate({4, 0}).t_comp_ms;
  EXPECT_NEAR(i, 0.5 * f, 1e-6);
}

TEST(EstimatorTest, NoCommunicationPhasesMeansNoCommCost) {
  ComputationPhaseSpec phase;
  phase.name = "pure";
  phase.num_pdus = [] { return std::int64_t{100}; };
  phase.ops_per_pdu = [] { return 10.0; };
  const ComputationSpec spec("pure-compute", {phase}, {}, 3);
  CycleEstimator est(testbed(), testbed_db(), spec);
  const CycleEstimate e = est.estimate({6, 6});
  EXPECT_DOUBLE_EQ(e.t_comm_ms, 0.0);
  EXPECT_DOUBLE_EQ(e.t_overlap_ms, 0.0);
  EXPECT_GT(e.t_comp_ms, 0.0);
}

TEST(EstimatorTest, CountsEvaluations) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 300, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  EXPECT_EQ(est.evaluations(), 0u);
  est.estimate({1, 0});
  est.estimate({2, 0});
  EXPECT_EQ(est.evaluations(), 2u);
}

TEST(EstimatorTest, RejectsBadConfigs) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 300, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  EXPECT_THROW(est.estimate({0, 0}), InvalidArgument);
  EXPECT_THROW(est.estimate({7, 0}), InvalidArgument);
  EXPECT_THROW(est.estimate({6}), InvalidArgument);
}

// ---------------------------------------------------------- partitioner

TEST(PartitionerTest, BinaryAndLinearSearchAgreeOnTestbed) {
  const AvailabilitySnapshot snap = all_idle(testbed());
  for (const bool overlap : {false, true}) {
    for (const std::int64_t n : {60, 300, 600, 1200}) {
      const ComputationSpec spec = apps::make_stencil_spec(
          apps::StencilConfig{.n = static_cast<int>(n),
                              .iterations = 10,
                              .overlap = overlap});
      CycleEstimator est(testbed(), testbed_db(), spec);
      PartitionOptions binary;
      PartitionOptions linear;
      linear.search = PartitionOptions::Search::Linear;
      const PartitionResult rb = partition(est, snap, binary);
      const PartitionResult rl = partition(est, snap, linear);
      EXPECT_EQ(rb.config, rl.config)
          << "N=" << n << " overlap=" << overlap;
      EXPECT_LE(rb.evaluations, rl.evaluations);
    }
  }
}

TEST(PartitionerTest, SmallProblemStaysLocal) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 60, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const PartitionResult r = partition(est, all_idle(testbed()));
  EXPECT_EQ(r.config[1], 0) << "IPCs must not be used for a tiny problem";
  EXPECT_LE(r.config[0], 3);
}

TEST(PartitionerTest, LargeProblemUsesBothClusters) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = true});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const PartitionResult r = partition(est, all_idle(testbed()));
  EXPECT_EQ(r.config[0], 6);
  EXPECT_GT(r.config[1], 0);
}

TEST(PartitionerTest, EvaluationBudgetIsKLogP) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const PartitionResult r = partition(est, all_idle(testbed()));
  // K = 2 clusters, P = 12: the paper's bound is ~K log2 P ~ 7; the
  // memoised binary search plus the p=0 probes stays within a small
  // constant of it.
  EXPECT_LE(r.evaluations, 14u);
}

TEST(PartitionerTest, RespectsAvailability) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  AvailabilitySnapshot snap;
  snap.available = {2, 1};
  const PartitionResult r = partition(est, snap);
  EXPECT_LE(r.config[0], 2);
  EXPECT_LE(r.config[1], 1);
  AvailabilitySnapshot none;
  none.available = {0, 0};
  EXPECT_THROW(partition(est, none), InvalidArgument);
}

TEST(PartitionerTest, FastestClusterUnavailableFallsThrough) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  AvailabilitySnapshot snap;
  snap.available = {0, 6};  // all Sparc2s busy
  const PartitionResult r = partition(est, snap);
  EXPECT_EQ(r.config[0], 0);
  EXPECT_GT(r.config[1], 0);
}

TEST(PartitionerTest, HeuristicMatchesExhaustiveOnTestbed) {
  const AvailabilitySnapshot snap = all_idle(testbed());
  for (const std::int64_t n : {60, 300, 600, 1200}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = static_cast<int>(n),
                            .iterations = 10,
                            .overlap = true});
    CycleEstimator est(testbed(), testbed_db(), spec);
    const PartitionResult heur = partition(est, snap);
    const PartitionResult exh = exhaustive_partition(est, snap);
    // On the 2-cluster testbed the locality heuristic should be optimal
    // or within a whisker (the objective can tie).
    EXPECT_LE(heur.estimate.t_c_ms, exh.estimate.t_c_ms * 1.02)
        << "N=" << n;
  }
}

TEST(PartitionerTest, PlacementMatchesConfig) {
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const PartitionResult r = partition(est, all_idle(testbed()));
  EXPECT_EQ(static_cast<int>(r.placement.size()), config_total(r.config));
  // Contiguous fastest-first: all Sparc2 ranks precede all IPC ranks.
  bool seen_ipc = false;
  for (const ProcessorRef& ref : r.placement) {
    if (ref.cluster == 1) seen_ipc = true;
    if (seen_ipc) {
      EXPECT_EQ(ref.cluster, 1);
    }
  }
}

TEST(PartitionerTest, BaselineConfigs) {
  const AvailabilitySnapshot snap = all_idle(testbed());
  EXPECT_EQ(config_all_available(snap), (ProcessorConfig{6, 6}));
}

TEST(PartitionerTest, GaussChoosesFewProcessors) {
  // Broadcast is bandwidth-limited: the partitioner must not flood it.
  const ComputationSpec spec =
      apps::make_gauss_spec(apps::GaussConfig{.n = 128});
  CycleEstimator est(testbed(), testbed_db(), spec);
  const PartitionResult r = partition(est, all_idle(testbed()));
  EXPECT_LE(config_total(r.config), 4);
}

}  // namespace
}  // namespace netpart
