// Unit tests for the discrete-event engine and the network simulator.
#include <gtest/gtest.h>

#include "net/builder.hpp"
#include "net/presets.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/netsim.hpp"
#include "util/error.hpp"

namespace netpart::sim {
namespace {

// ---------------------------------------------------------------- engine

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(SimTime::millis(3), [&] { order.push_back(3); });
  e.schedule_at(SimTime::millis(1), [&] { order.push_back(1); });
  e.schedule_at(SimTime::millis(2), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), SimTime::millis(3));
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(SimTime::millis(1), [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, ReentrantScheduling) {
  Engine e;
  int fired = 0;
  e.schedule_at(SimTime::millis(1), [&] {
    ++fired;
    e.schedule_after(SimTime::millis(1), [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), SimTime::millis(2));
}

TEST(EngineTest, RunUntilLeavesLaterEventsQueued) {
  Engine e;
  int fired = 0;
  e.schedule_at(SimTime::millis(1), [&] { ++fired; });
  e.schedule_at(SimTime::millis(10), [&] { ++fired; });
  e.run_until(SimTime::millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, RejectsPastEvents) {
  Engine e;
  e.schedule_at(SimTime::millis(5), [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(SimTime::millis(1), [] {}), InvalidArgument);
}

// --------------------------------------------------------------- channel

TEST(ChannelTest, SerialisesTransmissions) {
  Channel ch(10e6, SimTime::micros(50));
  const ChannelGrant g1 = ch.reserve(SimTime::zero(), SimTime::millis(2));
  const ChannelGrant g2 = ch.reserve(SimTime::zero(), SimTime::millis(3));
  EXPECT_EQ(g1.start, SimTime::zero());
  EXPECT_EQ(g1.end, SimTime::millis(2));
  EXPECT_EQ(g2.start, SimTime::millis(2));  // waits for g1
  EXPECT_EQ(g2.end, SimTime::millis(5));
  EXPECT_EQ(ch.total_busy(), SimTime::millis(5));
}

TEST(ChannelTest, IdleChannelStartsImmediately) {
  Channel ch(10e6, SimTime::zero());
  ch.reserve(SimTime::zero(), SimTime::millis(1));
  const ChannelGrant g = ch.reserve(SimTime::millis(10), SimTime::millis(1));
  EXPECT_EQ(g.start, SimTime::millis(10));
}

TEST(ChannelTest, WireTimeMatchesBandwidth) {
  Channel ch(10e6, SimTime::zero());  // 10 Mbit/s = 0.8 us/byte
  EXPECT_EQ((ch.byte_time() * 1000).as_micros(), 800.0);
  EXPECT_EQ(ch.byte_time().as_nanos(), 800);
}

// ------------------------------------------------------------------ host

TEST(HostTest, SerialisesReservations) {
  Host h;
  EXPECT_EQ(h.reserve(SimTime::zero(), SimTime::millis(2)),
            SimTime::millis(2));
  EXPECT_EQ(h.reserve(SimTime::millis(1), SimTime::millis(2)),
            SimTime::millis(4));  // starts at 2, not 1
  EXPECT_EQ(h.total_busy(), SimTime::millis(4));
}

// ---------------------------------------------------------------- netsim

class NetSimTest : public ::testing::Test {
 protected:
  Network net_ = presets::paper_testbed();
  Engine engine_;
};

TEST_F(NetSimTest, IntraClusterDeliveryTimeMatchesModel) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  SimTime delivered;
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 1000,
           [&] { delivered = engine_.now(); });
  engine_.run();
  // init + occupancy + recv processing.
  const SimTime expected =
      NetSimParams{}.send_initiation +
      sim.message_occupancy(net_.cluster(0).type(), net_.segment(0), 1000) +
      NetSimParams{}.recv_processing;
  EXPECT_EQ(delivered, expected);
}

TEST_F(NetSimTest, CrossClusterPaysRouterAndBothChannels) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  SimTime delivered;
  sim.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 1000,
           [&] { delivered = engine_.now(); });
  engine_.run();
  const auto link = net_.router_between(0, 1);
  const SimTime expected =
      NetSimParams{}.send_initiation +
      sim.message_occupancy(net_.cluster(0).type(), net_.segment(0), 1000) +
      link->delay_per_packet * 1 + link->delay_per_byte * 1000 +
      sim.message_occupancy(net_.cluster(1).type(), net_.segment(1), 1000) +
      NetSimParams{}.recv_processing;
  EXPECT_EQ(delivered, expected);
}

TEST_F(NetSimTest, CoercionChargedOnlyAcrossFormats) {
  const Network mixed = presets::coercion_testbed();
  Engine e1, e2;
  NetSim same(e1, net_, NetSimParams{}, Rng(1));
  NetSim cross(e2, mixed, NetSimParams{}, Rng(1));
  SimTime t_same, t_cross;
  same.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 2000,
            [&] { t_same = e1.now(); });
  cross.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 2000,
             [&] { t_cross = e2.now(); });
  e1.run();
  e2.run();
  // The mixed network's IPC-slot cluster is an i860 with different host
  // costs, so compare against its own analytic expectation instead.
  const SimTime coerce =
      mixed.cluster(1).type().coerce_per_byte * 2000;
  const SimTime base_cross =
      NetSimParams{}.send_initiation +
      cross.message_occupancy(mixed.cluster(0).type(), mixed.segment(0),
                              2000) +
      mixed.routers()[0].delay_per_packet * 2 +
      mixed.routers()[0].delay_per_byte * 2000 +
      cross.message_occupancy(mixed.cluster(1).type(), mixed.segment(1),
                              2000) +
      NetSimParams{}.recv_processing;
  EXPECT_EQ(t_cross, base_cross + coerce);
  // Same-format delivery on the paper testbed pays no coercion at all.
  EXPECT_GT(t_same, SimTime::zero());
  EXPECT_GT(coerce, SimTime::zero());
}

TEST_F(NetSimTest, FragmentationCounts) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  EXPECT_EQ(sim.fragments(0), 1);
  EXPECT_EQ(sim.fragments(1), 1);
  EXPECT_EQ(sim.fragments(1472), 1);
  EXPECT_EQ(sim.fragments(1473), 2);
  EXPECT_EQ(sim.fragments(4800), 4);
}

TEST_F(NetSimTest, FifoDeliveryBetweenPair) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 500,
             [&order, i] { order.push_back(i); });
  }
  engine_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.messages_delivered(), 5u);
}

TEST_F(NetSimTest, LossTriggersRetransmissionButDelivers) {
  NetSimParams params;
  params.loss_rate = 0.3;
  params.rto = SimTime::millis(5);
  NetSim sim(engine_, net_, params, Rng(99));
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 6000,
             [&] { ++delivered; });
  }
  engine_.run();
  EXPECT_EQ(delivered, 50);
  EXPECT_GT(sim.retransmissions(), 0u);
}

TEST_F(NetSimTest, LossDelaysDelivery) {
  Engine e_clean, e_lossy;
  NetSim clean(e_clean, net_, NetSimParams{}, Rng(4));
  NetSimParams lossy_params;
  lossy_params.loss_rate = 0.5;
  NetSim lossy(e_lossy, net_, lossy_params, Rng(4));
  SimTime t_clean, t_lossy;
  clean.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 8000,
             [&] { t_clean = e_clean.now(); });
  lossy.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 8000,
             [&] { t_lossy = e_lossy.now(); });
  e_clean.run();
  e_lossy.run();
  EXPECT_GT(t_lossy, t_clean);
}

TEST_F(NetSimTest, SelfSendSkipsTheWire) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  SimTime delivered;
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 0}, 100000,
           [&] { delivered = engine_.now(); });
  engine_.run();
  EXPECT_EQ(delivered,
            NetSimParams{}.send_initiation + NetSimParams{}.recv_processing);
  EXPECT_EQ(sim.channel(0).total_busy(), SimTime::zero());
}

TEST_F(NetSimTest, DeterministicAcrossRuns) {
  const auto run_once = [&]() {
    Engine e;
    NetSimParams params;
    params.loss_rate = 0.2;
    NetSim sim(e, net_, params, Rng(1234));
    SimTime last;
    for (int i = 0; i < 20; ++i) {
      sim.send(ProcessorRef{0, i % 6}, ProcessorRef{1, i % 6}, 3000,
               [&] { last = e.now(); });
    }
    e.run();
    return last;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(NetSimTest, ConcurrentMessagesInterleaveFragments) {
  // Two multi-fragment messages started together on one channel finish
  // close together (round-robin), not one fully before the other.
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  SimTime t_a, t_b;
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 8000,
           [&] { t_a = engine_.now(); });
  sim.send(ProcessorRef{0, 2}, ProcessorRef{0, 3}, 8000,
           [&] { t_b = engine_.now(); });
  engine_.run();
  const SimTime gap = t_b > t_a ? t_b - t_a : t_a - t_b;
  const SimTime one_message =
      sim.message_occupancy(net_.cluster(0).type(), net_.segment(0), 8000);
  EXPECT_LT(gap.as_millis(), 0.5 * one_message.as_millis());
}

TEST_F(NetSimTest, ParameterValidation) {
  NetSimParams bad;
  bad.loss_rate = 1.0;
  EXPECT_THROW(NetSim(engine_, net_, bad, Rng(1)), InvalidArgument);
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  EXPECT_THROW(sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, -1, [] {}),
               InvalidArgument);
  EXPECT_THROW(sim.host(ProcessorRef{9, 0}), InvalidArgument);
}

}  // namespace
}  // namespace netpart::sim
