// Unit and property tests for topologies, placement, and the communication
// cycle runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "net/builder.hpp"
#include "net/presets.hpp"
#include "topo/comm_cycle.hpp"
#include "topo/placement.hpp"
#include "topo/topology.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

// ------------------------------------------------- topology properties

struct TopoCase {
  Topology topo;
  int p;
};

class TopologyProperties : public ::testing::TestWithParam<TopoCase> {};

TEST_P(TopologyProperties, SendAndRecvAreTransposes) {
  const auto [topo, p] = GetParam();
  // r sends to n  <=>  n receives from r.
  for (GlobalRank r = 0; r < p; ++r) {
    for (GlobalRank n : send_neighbors(topo, r, p)) {
      const auto recv = recv_neighbors(topo, n, p);
      EXPECT_NE(std::find(recv.begin(), recv.end(), r), recv.end())
          << to_string(topo) << " p=" << p << ": " << r << "->" << n;
    }
  }
}

TEST_P(TopologyProperties, NeighborsAreValidAndDistinct) {
  const auto [topo, p] = GetParam();
  for (GlobalRank r = 0; r < p; ++r) {
    std::set<GlobalRank> seen;
    for (GlobalRank n : send_neighbors(topo, r, p)) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, p);
      EXPECT_NE(n, r) << "self-loop";
      EXPECT_TRUE(seen.insert(n).second) << "duplicate neighbour";
    }
  }
}

TEST_P(TopologyProperties, CycleMessagesMatchNeighbors) {
  const auto [topo, p] = GetParam();
  const auto messages = cycle_messages(topo, p);
  EXPECT_EQ(static_cast<std::int64_t>(messages.size()),
            messages_per_cycle(topo, p));
  // Each directed pair appears exactly once.
  std::set<std::pair<GlobalRank, GlobalRank>> unique(messages.begin(),
                                                     messages.end());
  EXPECT_EQ(unique.size(), messages.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologiesAndSizes, TopologyProperties,
    ::testing::Values(
        TopoCase{Topology::OneD, 1}, TopoCase{Topology::OneD, 2},
        TopoCase{Topology::OneD, 7}, TopoCase{Topology::OneD, 12},
        TopoCase{Topology::Ring, 2}, TopoCase{Topology::Ring, 3},
        TopoCase{Topology::Ring, 9}, TopoCase{Topology::TwoD, 4},
        TopoCase{Topology::TwoD, 6}, TopoCase{Topology::TwoD, 7},
        TopoCase{Topology::TwoD, 12}, TopoCase{Topology::Tree, 2},
        TopoCase{Topology::Tree, 5}, TopoCase{Topology::Tree, 15},
        TopoCase{Topology::Broadcast, 2}, TopoCase{Topology::Broadcast, 8}),
    [](const auto& test_info) {
      std::string name = to_string(test_info.param.topo);
      name += "_p";
      name += std::to_string(test_info.param.p);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(TopologyTest, KnownMessageCounts) {
  EXPECT_EQ(messages_per_cycle(Topology::OneD, 6), 10);   // 2(p-1)
  EXPECT_EQ(messages_per_cycle(Topology::Ring, 6), 6);    // p
  EXPECT_EQ(messages_per_cycle(Topology::Broadcast, 6), 5);
  EXPECT_EQ(messages_per_cycle(Topology::Tree, 7), 12);   // 2(p-1)
  EXPECT_EQ(messages_per_cycle(Topology::OneD, 1), 0);
}

TEST(TopologyTest, MeshShapes) {
  EXPECT_EQ(mesh_shape(12), (std::pair<int, int>{3, 4}));
  EXPECT_EQ(mesh_shape(9), (std::pair<int, int>{3, 3}));
  EXPECT_EQ(mesh_shape(7), (std::pair<int, int>{1, 7}));  // prime -> strip
  EXPECT_EQ(mesh_shape(1), (std::pair<int, int>{1, 1}));
}

TEST(TopologyTest, NamesRoundTrip) {
  for (Topology t : all_topologies()) {
    EXPECT_EQ(topology_from_string(to_string(t)), t);
  }
  EXPECT_EQ(topology_from_string("1d"), Topology::OneD);
  EXPECT_EQ(topology_from_string("BCAST"), Topology::Broadcast);
  EXPECT_THROW(topology_from_string("torus"), InvalidArgument);
  EXPECT_TRUE(is_bandwidth_limited(Topology::Broadcast));
  EXPECT_FALSE(is_bandwidth_limited(Topology::OneD));
}

// ------------------------------------------------------------ placement

class PlacementTest : public ::testing::Test {
 protected:
  Network net_ = presets::paper_testbed();
};

TEST_F(PlacementTest, ContiguousFillsFastestFirst) {
  const Placement p = contiguous_placement(net_, {2, 3});
  ASSERT_EQ(p.size(), 5u);
  // Sparc2 (cluster 0) is faster: ranks 0-1 there, 2-4 on the IPCs.
  EXPECT_EQ(p[0], (ProcessorRef{0, 0}));
  EXPECT_EQ(p[1], (ProcessorRef{0, 1}));
  EXPECT_EQ(p[2], (ProcessorRef{1, 0}));
  EXPECT_EQ(p[4], (ProcessorRef{1, 2}));
}

TEST_F(PlacementTest, SpeedOrderPutsFasterClustersFirst) {
  const Network fig1 = presets::fig1_network();
  const auto order = clusters_by_speed(fig1);
  // rs6000 (0.12us) < hp (0.2us) < sun4 (0.3us).
  EXPECT_EQ(order, (std::vector<ClusterId>{2, 1, 0}));
}

TEST_F(PlacementTest, SpeedOrderKeepsIdOrderOnTies) {
  // Equal flop times keep cluster-id order (a stable sort), whatever the
  // ids' positions.
  NetworkBuilder b;
  const std::vector<double> flop_us = {0.3, 0.1, 0.3, 0.1, 0.2, 0.1};
  for (std::size_t i = 0; i < flop_us.size(); ++i) {
    ProcessorType t;
    t.name = "cpu" + std::to_string(i);
    t.flop_time = SimTime::micros(flop_us[i]);
    b.add_cluster(t.name, t, 2);
  }
  EXPECT_EQ(clusters_by_speed(b.build()),
            (std::vector<ClusterId>{1, 3, 5, 4, 0, 2}));
}

TEST_F(PlacementTest, RoundRobinInterleaves) {
  const Placement p = round_robin_placement(net_, {2, 2});
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].cluster, 0);
  EXPECT_EQ(p[1].cluster, 1);
  EXPECT_EQ(p[2].cluster, 0);
  EXPECT_EQ(p[3].cluster, 1);
}

TEST_F(PlacementTest, ValidatesConfigs) {
  EXPECT_THROW(validate_config(net_, {7, 0}), InvalidArgument);  // too many
  EXPECT_THROW(validate_config(net_, {0, 0}), InvalidArgument);  // empty
  EXPECT_THROW(validate_config(net_, {1}), InvalidArgument);     // short
  EXPECT_NO_THROW(validate_config(net_, {6, 6}));
  EXPECT_EQ(config_total({3, 4}), 7);
}

TEST_F(PlacementTest, RouterCrossingsContiguousVsRoundRobin) {
  const ProcessorConfig config{3, 3};
  const auto contig = contiguous_placement(net_, config);
  const auto rr = round_robin_placement(net_, config);
  EXPECT_EQ(router_crossings(net_, contig, Topology::OneD), 2);
  EXPECT_EQ(router_crossings(net_, rr, Topology::OneD), 10);  // every link
  EXPECT_EQ(router_crossings(net_, contig, Topology::Ring), 2);
}

// ------------------------------------------------------------ comm cycle

TEST_F(PlacementTest, CommCycleCostGrowsWithBytesAndProcessors) {
  const auto cost = [&](int p, std::int64_t bytes) {
    sim::Engine engine;
    sim::NetSim sim(engine, net_, sim::NetSimParams{}, Rng(3));
    Placement placement;
    for (int i = 0; i < p; ++i) placement.push_back(ProcessorRef{0, i});
    return run_comm_cycles(sim, placement, Topology::OneD, bytes, 2)
        .elapsed_max;
  };
  EXPECT_LT(cost(2, 1000), cost(4, 1000));
  EXPECT_LT(cost(4, 1000), cost(6, 1000));
  EXPECT_LT(cost(4, 1000), cost(4, 4000));
}

TEST_F(PlacementTest, CommCyclePerRankNearMax) {
  // The paper's synchronous-cost observation: with fragment-interleaved
  // channels every processor experiences roughly the maximum cost.
  sim::Engine engine;
  sim::NetSim sim(engine, net_, sim::NetSimParams{}, Rng(3));
  Placement placement;
  for (int i = 0; i < 6; ++i) placement.push_back(ProcessorRef{0, i});
  const CycleResult r =
      run_comm_cycles(sim, placement, Topology::OneD, 4800, 1);
  EXPECT_GT(r.elapsed_mean.as_millis(), 0.6 * r.elapsed_max.as_millis());
}

TEST_F(PlacementTest, LocalityVsBandwidthTradeoff) {
  // Section 5's observations (1) and (2) are in conflict: spanning two
  // segments pays the router and the slower IPC interface, but gains a
  // second private channel.  Latency-bound cycles (small b) should prefer
  // locality; bandwidth-bound cycles (large b) benefit relatively more
  // from the extra segment.
  const auto run = [&](const Placement& placement, std::int64_t bytes) {
    sim::Engine engine;
    sim::NetSim sim(engine, net_, sim::NetSimParams{}, Rng(3));
    return run_comm_cycles(sim, placement, Topology::OneD, bytes, 2)
        .elapsed_max.as_millis();
  };
  Placement intra;
  for (int i = 0; i < 6; ++i) intra.push_back(ProcessorRef{0, i});
  const Placement spanning = contiguous_placement(net_, {3, 3});

  const double small_ratio = run(spanning, 64) / run(intra, 64);
  const double large_ratio = run(spanning, 4800) / run(intra, 4800);
  EXPECT_GT(small_ratio, 1.0) << "tiny messages: locality should win";
  EXPECT_LT(large_ratio, small_ratio)
      << "big messages: the second segment's bandwidth pays the router "
         "back";
}

TEST_F(PlacementTest, BroadcastRootBearsTheLoad) {
  sim::Engine engine;
  sim::NetSim sim(engine, net_, sim::NetSimParams{}, Rng(3));
  Placement placement;
  for (int i = 0; i < 5; ++i) placement.push_back(ProcessorRef{0, i});
  const CycleResult r =
      run_comm_cycles(sim, placement, Topology::Broadcast, 2000, 1);
  // Root (rank 0) finishes with the last delivery, as late as anyone.
  for (const SimTime t : r.per_rank) {
    EXPECT_LE(t, r.per_rank[0]);
  }
}

// ------------------------------------------------- the at-rest shortcut
//
// The engine's event count shows how many cycles a run simulated: every
// cycle of a lossless run executes the same events, so a run that
// simulated k cycles executes k times what a one-cycle run does.

struct CycleRun {
  CycleResult result;
  std::uint64_t events = 0;
};

/// `cycles` cycles on a fresh simulator that `prepare` may disturb first.
CycleRun run_cycles(const Network& net, const Placement& placement,
                    Topology topo, std::int64_t bytes, int cycles,
                    const sim::NetSimParams& params = {},
                    const std::function<void(sim::NetSim&)>& prepare = {}) {
  sim::Engine engine;
  sim::NetSim sim(engine, net, params, Rng(3));
  if (prepare) prepare(sim);
  CycleRun run;
  run.result = run_comm_cycles(sim, placement, topo, bytes, cycles);
  run.events = engine.events_executed();
  return run;
}

void expect_same_result(const CycleResult& want, const CycleResult& got) {
  EXPECT_EQ(got.per_rank, want.per_rank);
  EXPECT_EQ(got.elapsed_max, want.elapsed_max);
  EXPECT_EQ(got.elapsed_mean, want.elapsed_mean);
}

/// A tracer observes every event, so it makes every cycle simulate.
void trace_everything(sim::NetSim& sim) {
  sim.set_tracer([](const sim::TraceEvent&) {});
}

TEST_F(PlacementTest, CommCycleAtRestMatchesTheTracedRunBitForBit) {
  Placement intra;
  for (int i = 0; i < 6; ++i) intra.push_back(ProcessorRef{0, i});
  const Placement spanning = contiguous_placement(net_, {4, 3});
  constexpr int kCycles = 5;
  for (const Placement& placement : {intra, spanning}) {
    for (Topology topo : all_topologies()) {
      for (const std::int64_t bytes : {64, 2400, 9000}) {
        SCOPED_TRACE(to_string(topo) + " p=" +
                     std::to_string(placement.size()) +
                     " bytes=" + std::to_string(bytes));
        const CycleRun one = run_cycles(net_, placement, topo, bytes, 1);
        const CycleRun shortcut =
            run_cycles(net_, placement, topo, bytes, kCycles);
        const CycleRun traced = run_cycles(net_, placement, topo, bytes,
                                           kCycles, {}, trace_everything);
        expect_same_result(traced.result, shortcut.result);
        expect_same_result(one.result, shortcut.result);
        EXPECT_EQ(shortcut.events, one.events);
        EXPECT_EQ(traced.events, kCycles * one.events);
      }
    }
  }
}

TEST_F(PlacementTest, CommCycleSimulatesEveryCycleUnderLossTracerOrBusyHost) {
  Placement intra;
  for (int i = 0; i < 6; ++i) intra.push_back(ProcessorRef{0, i});
  constexpr int kCycles = 4;
  constexpr std::int64_t kBytes = 2400;
  const auto run = [&](const sim::NetSimParams& params,
                       const std::function<void(sim::NetSim&)>& prepare) {
    return run_cycles(net_, intra, Topology::OneD, kBytes, kCycles, params,
                      prepare);
  };
  const CycleRun one = run_cycles(net_, intra, Topology::OneD, kBytes, 1);

  EXPECT_EQ(run({}, trace_everything).events, kCycles * one.events);

  // Lossy: every cycle draws from the stream.  The run executes exactly
  // the events of its traced twin, and retransmissions add events.
  sim::NetSimParams lossy;
  lossy.loss_rate = 0.2;
  lossy.rto = SimTime::millis(1);
  const CycleRun lossy_run = run(lossy, {});
  const CycleRun lossy_traced = run(lossy, trace_everything);
  EXPECT_EQ(lossy_run.events, lossy_traced.events);
  expect_same_result(lossy_traced.result, lossy_run.result);
  EXPECT_GT(lossy_run.events, kCycles * one.events);

  // A host outside the placement, busy past every cycle's end: the
  // simulator is never at rest, though every cycle repeats the first.
  const CycleRun bystander = run({}, [](sim::NetSim& s) {
    s.host(ProcessorRef{1, 0}).reserve(SimTime::zero(), SimTime::seconds(60));
  });
  EXPECT_EQ(bystander.events, kCycles * one.events);
  expect_same_result(one.result, bystander.result);

  // A rank's host busy at the start: the first cycle waits for it; the
  // second starts and ends at rest, so the last two add up unsimulated.
  const auto busy_rank = [](sim::NetSim& s) {
    s.host(ProcessorRef{0, 3}).reserve(SimTime::zero(), SimTime::millis(100));
  };
  const CycleRun late = run({}, busy_rank);
  const CycleRun late_traced = run({}, [&](sim::NetSim& s) {
    busy_rank(s);
    trace_everything(s);
  });
  expect_same_result(late_traced.result, late.result);
  EXPECT_EQ(late.events, 2 * one.events);
  EXPECT_EQ(late_traced.events, kCycles * one.events);
  EXPECT_GT(late.result.elapsed_max, one.result.elapsed_max);
}

}  // namespace
}  // namespace netpart
