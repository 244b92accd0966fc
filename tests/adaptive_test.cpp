// Tests for the load schedule and the dynamic-repartitioning executor
// (the paper's Section 7 future work).
#include <gtest/gtest.h>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "exec/adaptive.hpp"
#include "exec/executor.hpp"
#include "exec/load.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

// ------------------------------------------------------------------ load

TEST(LoadScheduleTest, PiecewiseConstantLookup) {
  LoadSchedule s;
  const ProcessorRef ref{0, 2};
  s.add(ref, SimTime::millis(100), 0.5);
  s.add(ref, SimTime::millis(300), 0.2);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::zero()), 0.0);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::millis(100)), 0.5);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::millis(200)), 0.5);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::millis(400)), 0.2);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{0, 3}, SimTime::millis(200)), 0.0);
  EXPECT_DOUBLE_EQ(s.slowdown(ref, SimTime::millis(200)), 2.0);
}

TEST(LoadScheduleTest, LoadClampedBelowOne) {
  LoadSchedule s;
  s.add(ProcessorRef{0, 0}, SimTime::zero(), 5.0);
  EXPECT_LE(s.load(ProcessorRef{0, 0}, SimTime::millis(1)), 0.9);
}

TEST(LoadScheduleTest, StepSchedulesATailOfTheCluster) {
  const LoadSchedule s =
      LoadSchedule::step(testbed(), 1, 3, SimTime::millis(50), 0.4);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 2}, SimTime::millis(100)), 0.0);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 3}, SimTime::millis(100)), 0.4);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 5}, SimTime::millis(100)), 0.4);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 5}, SimTime::millis(10)), 0.0);
}

TEST(LoadScheduleTest, LoadSlowsExecutionDown) {
  const apps::StencilConfig cfg{.n = 300, .iterations = 10,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.n);
  const double unloaded =
      execute(testbed(), spec, placement, part, {}).elapsed.as_millis();
  const LoadSchedule loaded_half =
      LoadSchedule::step(testbed(), 0, 0, SimTime::zero(), 0.5);
  ExecutionOptions options;
  options.load = &loaded_half;
  const double loaded =
      execute(testbed(), spec, placement, part, options)
          .elapsed.as_millis();
  // All four processors at 0.5 load: compute takes 2x.
  EXPECT_GT(loaded, 1.6 * unloaded);
}

// -------------------------------------------------------------- adaptive

struct AdaptiveFixture {
  apps::StencilConfig cfg{.n = 1200, .iterations = 40, .overlap = false};
  ComputationSpec spec = apps::make_stencil_spec(cfg);
  ProcessorConfig config{6, 0};
  Placement placement = contiguous_placement(testbed(), config);
  PartitionVector initial = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.n);
  AdaptiveOptions adaptive{.check_interval = 5,
                           .imbalance_threshold = 1.25,
                           .pdu_bytes = 4 * 1200};
};

TEST(AdaptiveTest, ConfigRecoveryScoresAgainstExhaustiveOracle) {
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(testbed(), params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), cal.db, spec);

  // Degraded availability: half the fast cluster is gone.
  AvailabilitySnapshot snap;
  snap.available = {3, 6};

  // The oracle's own pick scores a perfect 1.0; a deliberately bad
  // recovery (one slow processor) scores strictly worse.
  const ConfigRecoveryReport self = evaluate_config_recovery(
      est, snap, exhaustive_partition(est, snap, {.threads = 2}).config);
  EXPECT_DOUBLE_EQ(self.ratio, 1.0);
  EXPECT_GT(self.oracle_evaluations, 0u);

  const ConfigRecoveryReport bad =
      evaluate_config_recovery(est, snap, ProcessorConfig{0, 1});
  EXPECT_GT(bad.ratio, 1.0);
  EXPECT_EQ(bad.oracle_config, self.oracle_config);
  EXPECT_DOUBLE_EQ(bad.oracle_t_c_ms, self.oracle_t_c_ms);
}

TEST(AdaptiveTest, ConfigRecoveryLocalRepairMatchesBruteForceScan) {
  // The local +/-1 repair fields against a brute-force scan of the
  // neighbours through the reference estimate(): every legal single move
  // off the achieved configuration, cluster ascending and +1 before -1,
  // kept only when it beats the best so far by more than 1e-12.
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  Rng rng(0x10CA1);
  const auto expect_scan = [&](const Network& net, const CostModelDb& db) {
    const CycleEstimator est(net, db, spec);
    const AvailabilitySnapshot snap =
        gather_availability(net, make_managers(net, AvailabilityPolicy{}));
    std::vector<ProcessorConfig> achieved_set;
    Rng config_rng = rng.stream(1);
    while (achieved_set.size() < 12) {
      ProcessorConfig config(snap.available.size(), 0);
      for (std::size_t c = 0; c < config.size(); ++c) {
        config[c] =
            static_cast<int>(config_rng.next_int(0, snap.available[c]));
      }
      if (config_total(config) > 0) achieved_set.push_back(config);
    }
    // One processor per cluster: on the twin network its two +1 moves tie.
    achieved_set.push_back(ProcessorConfig(snap.available.size(), 1));
    // The exhaustive argmin is a global optimum, so no move improves it.
    achieved_set.push_back(exhaustive_partition(est, snap).config);

    int improvable = 0;
    int optimal = 0;
    for (const ProcessorConfig& achieved : achieved_set) {
      const ConfigRecoveryReport report =
          evaluate_config_recovery(est, snap, achieved);
      double best = est.estimate(achieved).t_c_ms;
      ProcessorConfig best_config = achieved;
      for (std::size_t c = 0; c < achieved.size(); ++c) {
        for (const int delta : {+1, -1}) {
          ProcessorConfig probe = achieved;
          probe[c] += delta;
          if (probe[c] < 0 || probe[c] > snap.available[c]) continue;
          if (config_total(probe) == 0) continue;
          const double value = est.estimate(probe).t_c_ms;
          if (value < best - 1e-12) {
            best = value;
            best_config = probe;
          }
        }
      }
      const bool moved = best_config != achieved;
      EXPECT_EQ(report.local_best_t_c_ms, best);
      EXPECT_EQ(report.local_best_config, best_config);
      EXPECT_EQ(report.locally_optimal, !moved);
      ++(moved ? improvable : optimal);
    }
    EXPECT_GT(improvable, 0);
    EXPECT_GT(optimal, 0);
  };

  CalibrationParams params;
  params.topologies = {Topology::OneD};
  expect_scan(testbed(), calibrate(testbed(), params).db);
  const Network wide = presets::random_network(rng, 3, 5);
  expect_scan(wide, calibrate(wide, params).db);

  // Two identical clusters with identical fitted costs: mirrored
  // configurations score the same, so from {1, 1} the scan order and the
  // strict bar decide which +1 move is reported.
  NetworkBuilder builder;
  builder.bandwidth_bps(10e6);
  builder.router_delay(SimTime::nanos(600), SimTime::micros(100));
  builder.add_cluster("twin0", testbed().cluster(0).type(), 4);
  builder.add_cluster("twin1", testbed().cluster(0).type(), 4);
  const Network twin = builder.build();
  CostModelDb twin_db = calibrate(twin, params).db;
  const Eq1Fit fit = twin_db.comm_fit(0, Topology::OneD);
  twin_db.set_comm(1, Topology::OneD, fit);
  expect_scan(twin, twin_db);
}

TEST(AdaptiveTest, NoLoadMeansNoRepartitions) {
  AdaptiveFixture f;
  const AdaptiveResult r = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, {}, f.adaptive);
  EXPECT_EQ(r.repartitions, 0);
  EXPECT_EQ(r.redistribution_time, SimTime::zero());
  EXPECT_EQ(r.final_partition.values(), f.initial.values());
}

TEST(AdaptiveTest, RepartitionsUnderSkewedLoadAndWins) {
  AdaptiveFixture f;
  // Halfway processors 3..5 pick up a heavy background user.
  const LoadSchedule skew =
      LoadSchedule::step(testbed(), 0, 3, SimTime::millis(500), 0.5);
  ExecutionOptions options;
  options.load = &skew;

  const AdaptiveResult adaptive = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  const AdaptiveResult fixed = execute_static_chunked(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  EXPECT_GT(adaptive.repartitions, 0);
  EXPECT_LT(adaptive.elapsed, fixed.elapsed);
  // The loaded processors must end with less work than the unloaded.
  EXPECT_LT(adaptive.final_partition.at(5), adaptive.final_partition.at(0));
}

TEST(AdaptiveTest, StaticChunkedMatchesPlainExecutor) {
  AdaptiveFixture f;
  const AdaptiveResult chunked = execute_static_chunked(
      testbed(), f.spec, f.placement, f.initial, {}, f.adaptive);
  const double plain =
      execute(testbed(), f.spec, f.placement, f.initial, {})
          .elapsed.as_millis();
  // Chunking inserts barriers; allow a small divergence.
  EXPECT_NEAR(chunked.elapsed.as_millis(), plain, 0.05 * plain);
}

TEST(AdaptiveTest, RedistributionCostIsCounted) {
  AdaptiveFixture f;
  const LoadSchedule skew =
      LoadSchedule::step(testbed(), 0, 3, SimTime::zero(), 0.6);
  ExecutionOptions options;
  options.load = &skew;
  const AdaptiveResult r = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  ASSERT_GT(r.repartitions, 0);
  EXPECT_GT(r.redistribution_time, SimTime::zero());
}

TEST(LoadScheduleTest, RandomWalkIsBoundedAndSeeded) {
  const LoadSchedule a = LoadSchedule::random_walk(
      testbed(), Rng(5), 0.3, SimTime::seconds(1), SimTime::seconds(5));
  const LoadSchedule b = LoadSchedule::random_walk(
      testbed(), Rng(5), 0.3, SimTime::seconds(1), SimTime::seconds(5));
  for (ClusterId c = 0; c < testbed().num_clusters(); ++c) {
    for (ProcessorIndex i = 0; i < testbed().cluster(c).size(); ++i) {
      for (double t : {0.5, 2.5, 4.5}) {
        const double la = a.load(ProcessorRef{c, i}, SimTime::seconds(t));
        EXPECT_GE(la, 0.0);
        EXPECT_LE(la, 0.9);
        EXPECT_EQ(la, b.load(ProcessorRef{c, i}, SimTime::seconds(t)));
      }
    }
  }
  // Loads actually change over time for at least some processors.
  bool changed = false;
  for (ProcessorIndex i = 0; i < 6; ++i) {
    if (a.load(ProcessorRef{0, i}, SimTime::seconds(0.5)) !=
        a.load(ProcessorRef{0, i}, SimTime::seconds(4.5))) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(AdaptiveTest, ValidatesOptions) {
  AdaptiveFixture f;
  AdaptiveOptions bad = f.adaptive;
  bad.check_interval = 0;
  EXPECT_THROW(execute_adaptive(testbed(), f.spec, f.placement, f.initial,
                                {}, bad),
               InvalidArgument);
  bad = f.adaptive;
  bad.imbalance_threshold = 1.0;
  EXPECT_THROW(execute_adaptive(testbed(), f.spec, f.placement, f.initial,
                                {}, bad),
               InvalidArgument);
}

}  // namespace
}  // namespace netpart
