// Tests for the tree-reduction application.
#include <gtest/gtest.h>

#include "apps/reduce.hpp"
#include "core/decompose.hpp"
#include "exec/executor.hpp"
#include "net/presets.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

TEST(ReduceTest, SpecUsesTreeTopology) {
  const ComputationSpec spec =
      apps::make_reduce_spec(apps::ReduceConfig{.count = 1000,
                                                .iterations = 5});
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::Tree);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(100), 8);
  EXPECT_EQ(spec.num_pdus(), 1000);
}

TEST(ReduceTest, ExecutorRunsTreeTopology) {
  const apps::ReduceConfig cfg{.count = 100000, .iterations = 10};
  const ComputationSpec spec = apps::make_reduce_spec(cfg);
  const ProcessorConfig config{6, 4};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.count);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  EXPECT_GT(r.elapsed.as_millis(), 0.0);
  // 2(p-1) messages per cycle for the symmetric tree exchange.
  EXPECT_EQ(r.messages_delivered, 10u * 2u * 9u);
}

TEST(ReduceTest, StartupScatterMeasured) {
  const apps::ReduceConfig cfg{.count = 50000, .iterations = 5};
  const ComputationSpec spec = apps::make_reduce_spec(cfg);
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.count);
  ExecutionOptions options;
  options.pdu_bytes = 8;
  const ExecutionResult r = execute(testbed(), spec, placement, part,
                                    options);
  EXPECT_GT(r.startup, SimTime::zero());
  const ExecutionResult no_startup =
      execute(testbed(), spec, placement, part, {});
  EXPECT_EQ(no_startup.startup, SimTime::zero());
  // The iteration time itself is unaffected by measuring startup.
  EXPECT_EQ(r.elapsed, no_startup.elapsed);
}

}  // namespace
}  // namespace netpart
