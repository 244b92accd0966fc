// Tests for the SPMD executor and step scheduling.
#include <gtest/gtest.h>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "core/partitioner.hpp"
#include "exec/executor.hpp"
#include "exec/schedule.hpp"
#include "net/availability.hpp"
#include "net/presets.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

ComputationSpec stencil(int n, bool overlap) {
  return apps::make_stencil_spec(
      apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
}

TEST(ScheduleTest, Sten1OrderIsSendRecvCompute) {
  const ComputationSpec spec = stencil(60, false);
  const auto steps = default_schedule(spec);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, StepKind::Send);
  EXPECT_EQ(steps[1].kind, StepKind::Receive);
  EXPECT_EQ(steps[2].kind, StepKind::Compute);
  EXPECT_EQ(to_string(steps, spec),
            "send(borders) recv(borders) compute(grid)");
}

TEST(ScheduleTest, Sten2OrderIsSendComputeRecv) {
  const ComputationSpec spec = stencil(60, true);
  const auto steps = default_schedule(spec);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, StepKind::Send);
  EXPECT_EQ(steps[1].kind, StepKind::Compute);
  EXPECT_EQ(steps[2].kind, StepKind::Receive);
}

TEST(ScheduleTest, MultiPhaseOrdering) {
  // Two computation phases, three communication phases with different
  // overlap targets: sends first, non-overlapped receives before any
  // compute, each overlapped receive after its compute phase.
  ComputationPhaseSpec prep;
  prep.name = "prep";
  prep.num_pdus = [] { return std::int64_t{100}; };
  prep.ops_per_pdu = [] { return 1.0; };
  ComputationPhaseSpec main_phase = prep;
  main_phase.name = "main";
  main_phase.ops_per_pdu = [] { return 50.0; };

  const auto comm = [](std::string name, std::string overlap) {
    CommunicationPhaseSpec p;
    p.name = std::move(name);
    p.topology = [] { return Topology::OneD; };
    p.bytes_per_message = [](std::int64_t) { return std::int64_t{64}; };
    p.overlap_with = std::move(overlap);
    return p;
  };
  const ComputationSpec spec(
      "multi", {prep, main_phase},
      {comm("sync", ""), comm("early", "prep"), comm("late", "main")}, 2);

  const auto steps = default_schedule(spec);
  EXPECT_EQ(to_string(steps, spec),
            "send(sync) send(early) send(late) recv(sync) compute(prep) "
            "recv(early) compute(main) recv(late)");

  // And it executes: 1-D chain of 4 -> 6 directed messages per comm phase
  // per iteration, 3 phases, 2 iterations.
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 100);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  EXPECT_EQ(r.messages_delivered, 2u * 3u * 6u);
}

TEST(ExecutorTest, SingleRankIsPureCompute) {
  const ComputationSpec spec = stencil(300, false);
  const Placement placement{ProcessorRef{0, 0}};
  const PartitionVector part({300});
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  // 10 iterations x 0.0003 ms x 5*300 x 300 rows = 1350 ms of compute plus
  // nothing else (no neighbours).
  EXPECT_NEAR(r.elapsed.as_millis(), 1350.0, 5.0);
  EXPECT_EQ(r.messages_delivered, 0u);
}

TEST(ExecutorTest, DeterministicWithoutJitter) {
  const ComputationSpec spec = stencil(300, true);
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  const ExecutionResult a = execute(testbed(), spec, placement, part, {});
  const ExecutionResult b = execute(testbed(), spec, placement, part, {});
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.rank_finish, b.rank_finish);
}

TEST(ExecutorTest, JitterPerturbsButSeedsReproduce) {
  const ComputationSpec spec = stencil(300, false);
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  ExecutionOptions o1;
  o1.compute_jitter = 0.05;
  o1.seed = 1;
  ExecutionOptions o2 = o1;
  o2.seed = 2;
  const double t1 = execute(testbed(), spec, placement, part, o1)
                        .elapsed.as_millis();
  const double t1_again = execute(testbed(), spec, placement, part, o1)
                              .elapsed.as_millis();
  const double t2 = execute(testbed(), spec, placement, part, o2)
                        .elapsed.as_millis();
  EXPECT_EQ(t1, t1_again);
  EXPECT_NE(t1, t2);
}

TEST(ExecutorTest, BalancedPartitionBalancesBusyTime) {
  const ComputationSpec spec = stencil(1200, false);
  const ProcessorConfig config{6, 6};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 1200);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  SimTime busy_min = SimTime::max();
  SimTime busy_max = SimTime::zero();
  for (const SimTime t : r.rank_busy) {
    busy_min = std::min(busy_min, t);
    busy_max = std::max(busy_max, t);
  }
  // Within ~12%: integer rounding of A_i plus asymmetric border traffic.
  EXPECT_LT(busy_max.as_millis(), 1.12 * busy_min.as_millis());
}

TEST(ExecutorTest, EqualPartitionImbalancesBusyTime) {
  const ComputationSpec spec = stencil(1200, false);
  const ProcessorConfig config{6, 6};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector equal = equal_partition(12, 1200);
  const ExecutionResult r = execute(testbed(), spec, placement, equal, {});
  // IPC ranks (6..11) run their equal share at half speed: ~2x busy.
  EXPECT_GT(r.rank_busy[6].as_millis(), 1.7 * r.rank_busy[0].as_millis());
}

TEST(ExecutorTest, MessageCountMatchesTopology) {
  const ComputationSpec spec = stencil(300, false);
  const ProcessorConfig config{5, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  // 1-D chain of 5: 2(p-1) = 8 messages per iteration, 10 iterations.
  EXPECT_EQ(r.messages_delivered, 80u);
}

TEST(ExecutorTest, OverlapBeatsNoOverlap) {
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         600);
  const double t1 = execute(testbed(), stencil(600, false), placement, part,
                            {})
                        .elapsed.as_millis();
  const double t2 = execute(testbed(), stencil(600, true), placement, part,
                            {})
                        .elapsed.as_millis();
  EXPECT_LT(t2, t1);
}

TEST(ExecutorTest, SurvivesHeavyLossAndStillCompletes) {
  const ComputationSpec spec = stencil(300, false);
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  ExecutionOptions clean;
  ExecutionOptions lossy;
  lossy.sim_params.loss_rate = 0.25;
  lossy.sim_params.rto = SimTime::millis(10);
  const ExecutionResult rc = execute(testbed(), spec, placement, part,
                                     clean);
  const ExecutionResult rl = execute(testbed(), spec, placement, part,
                                     lossy);
  EXPECT_EQ(rl.messages_delivered, rc.messages_delivered);
  EXPECT_GT(rl.retransmissions, 0u);
  EXPECT_GT(rl.elapsed, rc.elapsed);
}

TEST(ExecutorTest, ComputeBreakdownAccountsForEq4) {
  const ComputationSpec spec = stencil(1200, false);
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 1200);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  ASSERT_EQ(r.rank_compute.size(), 6u);
  for (const SimTime t : r.rank_compute) {
    // 10 iterations x 0.0003 ms x 6000 x 200 rows = 3600 ms.
    EXPECT_NEAR(t.as_millis(), 3600.0, 5.0);
    // Compute is part of, and dominated by, total busy time.
    EXPECT_LE(t, r.elapsed);
  }
  // Busy = compute + messaging overhead; the difference is small but
  // positive (send initiations + receive processing).
  for (std::size_t i = 0; i < r.rank_busy.size(); ++i) {
    EXPECT_GT(r.rank_busy[i], r.rank_compute[i]);
  }
  // Communication exposure = elapsed - compute for the slowest rank.
  EXPECT_GT(r.elapsed, r.rank_compute[0]);
}

TEST(ExecutorTest, ValidatesPartitionAlignment) {
  const ComputationSpec spec = stencil(300, false);
  const Placement placement = contiguous_placement(testbed(), {2, 0});
  EXPECT_THROW(
      execute(testbed(), spec, placement, PartitionVector({300}), {}),
      InvalidArgument);  // 1 entry for 2 ranks
  EXPECT_THROW(
      execute(testbed(), spec, placement, PartitionVector({100, 100}), {}),
      InvalidArgument);  // does not cover the domain
}

TEST(ExecutorTest, AverageElapsedAveragesSeeds) {
  const ComputationSpec spec = stencil(300, false);
  const Placement placement = contiguous_placement(testbed(), {3, 0});
  const PartitionVector part = balanced_partition(
      testbed(), {3, 0}, clusters_by_speed(testbed()), 300);
  ExecutionOptions options;
  options.compute_jitter = 0.05;
  const double avg =
      average_elapsed_ms(testbed(), spec, placement, part, options, 5);
  EXPECT_GT(avg, 0.0);
  EXPECT_THROW(
      average_elapsed_ms(testbed(), spec, placement, part, options, 0),
      InvalidArgument);
}

// Two communication phases of different topologies -- a 1-D halo exchange
// and an 8-byte tree reduction, as an iterative solver with a residual norm
// has: the partitioner estimates on the dominant (halo) phase, and the
// executor runs both, so every cycle carries the chain's and the tree's
// messages.
TEST(ExecutorTest, TwoCommunicationPhasesPartitionAndExecute) {
  constexpr int n = 1200;
  ComputationPhaseSpec sweep;
  sweep.name = "sweep";
  sweep.num_pdus = [] { return std::int64_t{n}; };
  sweep.ops_per_pdu = [] { return 6.0 * n; };
  sweep.op_kind = OpKind::FloatingPoint;
  CommunicationPhaseSpec borders;
  borders.name = "borders";
  borders.topology = [] { return Topology::OneD; };
  borders.bytes_per_message = [](std::int64_t) { return std::int64_t{4} * n; };
  CommunicationPhaseSpec norm;
  norm.name = "norm";
  norm.topology = [] { return Topology::Tree; };
  norm.bytes_per_message = [](std::int64_t) { return std::int64_t{8}; };
  const ComputationSpec spec("halo-and-norm", {sweep}, {borders, norm}, 10);
  ASSERT_EQ(spec.dominant_communication().name, "borders");

  CalibrationParams params;
  params.topologies = {Topology::OneD, Topology::Tree};
  const CalibrationResult cal = calibrate(testbed(), params);
  CycleEstimator est(testbed(), cal.db, spec);
  const AvailabilitySnapshot snap = gather_availability(
      testbed(), make_managers(testbed(), AvailabilityPolicy{}));
  const PartitionResult r = partition(est, snap);
  EXPECT_GE(config_total(r.config), 6);
  const ExecutionResult run =
      execute(testbed(), spec, r.placement, r.estimate.partition, {});
  EXPECT_GT(run.elapsed.as_millis(), 0.0);
  // 2(p-1) directed messages per cycle on the chain, 2(p-1) on the tree.
  const std::uint64_t p =
      static_cast<std::uint64_t>(config_total(r.config));
  EXPECT_EQ(run.messages_delivered, 10u * (2 * (p - 1) + 2 * (p - 1)));
}

}  // namespace
}  // namespace netpart
