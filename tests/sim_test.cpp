// Unit tests for the discrete-event engine and the network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/netsim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

TEST(EngineTest, ResetRestoresAFreshEngine) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(SimTime::millis(i), [&fired] { ++fired; });
  }
  e.run_until(SimTime::millis(49));
  ASSERT_EQ(e.pending(), 50u);
  e.reset();
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.now(), SimTime::zero());
  EXPECT_EQ(e.events_executed(), 0u);
  e.run();
  EXPECT_EQ(fired, 50);  // the queued actions were dropped unrun

  // Ties still break by insertion order, and the kept tables schedule
  // without allocating.
  std::vector<int> order;
  order.reserve(8);
  std::vector<int>* out = &order;
  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < 8; ++i) {
    e.schedule_at(SimTime::millis(1), [out, i] { out->push_back(i); });
  }
  e.run();
  EXPECT_EQ(heap_allocations() - before, 0u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(e.events_executed(), 8u);
}

// ------------------------------------------------ event order, differential
//
// The engine against a reference model of its event order: a
// std::priority_queue of (time, seq) keys under `Later`, the order the
// engine's std::push_heap/pop_heap queue used before it packed its keys
// and sifted them itself.  What an event schedules when it runs is a pure
// function of the round's seed and the event's sequence number, so the
// model replays the engine's schedule without running any action.

struct Fired {
  SimTime at;
  std::uint64_t seq;
  bool operator==(const Fired&) const = default;
};

/// Delays of the events that event `seq` schedules when it runs: none,
/// one or two, each zero (a schedule at now() from inside an action) or a
/// few µs, so many events share a time.  0.8 children per event on
/// average, so every round drains.
std::vector<SimTime> children_of(const Rng& round, std::uint64_t seq) {
  Rng rng = round.stream(seq);
  std::vector<SimTime> delays;
  const std::int64_t draw = rng.next_int(0, 9);
  const int count = draw < 4 ? 0 : (draw < 8 ? 1 : 2);
  for (int i = 0; i < count; ++i) {
    delays.push_back(rng.next_bool(0.4) ? SimTime::zero()
                                        : SimTime::micros(
                                              static_cast<double>(
                                                  rng.next_int(1, 4))));
  }
  return delays;
}

class ReferenceQueue {
 public:
  void reset() {
    queue_ = {};
    now_ = SimTime::zero();
    next_seq_ = 0;
    executed_ = 0;
  }
  void schedule_at(SimTime at) { queue_.push(Fired{at, next_seq_++}); }
  /// Runs events with time <= limit, as Engine::run_until does.
  void run_until(SimTime limit, const Rng& round, std::vector<Fired>& log) {
    while (!queue_.empty() && queue_.top().at <= limit) step(round, log);
    if (now_ < limit && queue_.empty()) now_ = limit;
  }
  void run(const Rng& round, std::vector<Fired>& log) {
    while (!queue_.empty()) step(round, log);
  }
  SimTime now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  /// The top is the earliest (time, seq).
  struct Later {
    bool operator()(const Fired& a, const Fired& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  void step(const Rng& round, std::vector<Fired>& log) {
    const Fired top = queue_.top();
    queue_.pop();
    now_ = top.at;
    ++executed_;
    log.push_back(top);
    for (const SimTime delay : children_of(round, top.seq)) {
      schedule_at(now_ + delay);
    }
  }

  std::priority_queue<Fired, std::vector<Fired>, Later> queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// Drives an Engine with actions that log (now, own seq) and schedule
/// children_of(seq).  The engine numbers its events 0, 1, ... since the
/// last reset; so does `next_seq`.
struct EngineUnderTest {
  Engine engine;
  Rng round{0};
  std::uint64_t next_seq = 0;
  std::vector<Fired> log;

  void reset(const Rng& r) {
    engine.reset();
    round = r;
    next_seq = 0;
    log.clear();
  }
  void schedule_at(SimTime at) {
    const std::uint64_t seq = next_seq++;
    engine.schedule_at(at, [this, seq] { fire(seq); });
  }
  void fire(std::uint64_t seq) {
    log.push_back(Fired{engine.now(), seq});
    for (const SimTime delay : children_of(round, seq)) {
      schedule_at(engine.now() + delay);
    }
  }
};

TEST(EngineTest, EventOrderMatchesTheReferenceQueue) {
  EngineUnderTest got;
  ReferenceQueue want;
  std::vector<Fired> want_log;
  Rng seeds(2024);
  std::size_t peak_pending = 0;
  int reset_busy = 0;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Rng r = seeds.stream(static_cast<std::uint64_t>(round));
    got.reset(r);
    want.reset();
    want_log.clear();
    Rng ops = r.stream(~std::uint64_t{0});
    // Bursts: up to 300 events over a few distinct times, so the table
    // grows past its first 64 slots and most events tie on time.
    const std::int64_t burst = ops.next_int(1, 300);
    for (std::int64_t i = 0; i < burst; ++i) {
      const SimTime at = SimTime::micros(
          static_cast<double>(ops.next_int(0, 3) * 5));
      got.schedule_at(at);
      want.schedule_at(at);
    }
    peak_pending = std::max(peak_pending, got.engine.pending());
    // run_until cut-offs, some between the events' times, then a drain
    // (or, every fourth round, a reset with events still pending).
    SimTime limit = SimTime::zero();
    for (int cut = 0; cut < 6; ++cut) {
      limit += SimTime::nanos(ops.next_int(0, 4000));
      got.engine.run_until(limit);
      want.run_until(limit, r, want_log);
      ASSERT_EQ(got.engine.now(), want.now());
      ASSERT_EQ(got.engine.pending(), want.pending());
    }
    if (round % 4 == 3) {
      // Left pending: the next round resets an engine that is not idle.
      ASSERT_EQ(got.log, want_log);
      if (!got.engine.idle()) ++reset_busy;
      continue;
    }
    got.engine.run();
    want.run(r, want_log);
    ASSERT_EQ(got.log, want_log);
    EXPECT_EQ(got.engine.now(), want.now());
    EXPECT_EQ(got.engine.events_executed(), want.executed());
    EXPECT_EQ(got.engine.events_executed(), got.log.size());
    EXPECT_TRUE(got.engine.idle());
  }
  EXPECT_GT(peak_pending, 64u);
  EXPECT_GT(reset_busy, 0);
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

// ------------------------------------------------ event-path allocations
//
// Every event NetSim schedules captures (this, slot), which std::function
// stores inline, and the engine and the simulator reuse freed slots.  So
// once one round has grown the slot tables, a message whose callback is
// one pointer allocates nothing -- on every path that ends a message.

TEST_F(NetSimTest, WarmMessagesAllocateNothing) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  int delivered = 0;
  int* count = &delivered;
  const auto round = [&] {
    sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 240,
             [count] { ++*count; });
    // Four fragments across the router: two legs, two channels.
    sim.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 4800,
             [count] { ++*count; });
    sim.send(ProcessorRef{0, 2}, ProcessorRef{0, 2}, 64,
             [count] { ++*count; });
    engine_.run();
  };
  round();
  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < 1000; ++i) round();
  const std::uint64_t allocated = heap_allocations() - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(delivered, 3003);
  EXPECT_EQ(sim.messages_delivered(), 3003u);
}

TEST_F(NetSimTest, DeadReceiverFreesTheSlotWithoutAllocating) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  sim.host(ProcessorRef{1, 1}).crash();
  int delivered = 0;
  int* count = &delivered;
  const auto round = [&] {
    sim.send(ProcessorRef{0, 0}, ProcessorRef{1, 1}, 2400,
             [count] { ++*count; });
    engine_.run();
    sim.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 2400,
             [count] { ++*count; });
    engine_.run();
  };
  round();
  const std::uint64_t before = heap_allocations();
  // More rounds than the tables' first capacity: a slot that leaked would
  // force a grow.
  for (int i = 0; i < 100; ++i) round();
  const std::uint64_t allocated = heap_allocations() - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(delivered, 101);
  EXPECT_EQ(sim.messages_dropped(), 101u);
}

TEST_F(NetSimTest, DeadSenderTakesNoSlotAndAllocatesNothing) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  sim.host(ProcessorRef{0, 3}).crash();
  int delivered = 0;
  int* count = &delivered;
  const auto round = [&] {
    sim.send(ProcessorRef{0, 3}, ProcessorRef{0, 1}, 480,
             [count] { ++*count; });
    sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 480,
             [count] { ++*count; });
    engine_.run();
  };
  round();
  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < 100; ++i) round();
  const std::uint64_t allocated = heap_allocations() - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(delivered, 101);
  EXPECT_EQ(sim.messages_dropped(), 101u);
}

TEST_F(NetSimTest, GiveUpFreesTheSlotWithoutAllocating) {
  NetSimParams params;
  params.rto = SimTime::millis(1);
  params.max_retransmit_rounds = 2;
  params.give_up_after_max_rounds = true;
  NetSim sim(engine_, net_, params, Rng(1));
  int delivered = 0;
  int* count = &delivered;
  const auto round = [&] {
    // A downed segment loses every fragment, so the message exhausts its
    // retransmission rounds and is dropped.
    sim.channel(0).set_down(true);
    sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 3000,
             [count] { ++*count; });
    engine_.run();
    sim.channel(0).set_down(false);
    sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 3000,
             [count] { ++*count; });
    engine_.run();
  };
  round();
  const std::uint64_t before = heap_allocations();
  for (int i = 0; i < 100; ++i) round();
  const std::uint64_t allocated = heap_allocations() - before;
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(delivered, 101);
  EXPECT_EQ(sim.messages_dropped(), 101u);
  EXPECT_GT(sim.retransmissions(), 0u);
}

// ------------------------------------------------------ reset and at_rest
//
// A traffic sample: an intra-cluster message whose delivery sends a reply
// across the router, a 4-fragment message across the router, and a
// self-send.  Every callback captures 16 bytes, so a warm sample allocates
// nothing.

void run_sample(NetSim& sim, std::array<SimTime, 4>& delivered) {
  NetSim* s = &sim;
  SimTime* at = delivered.data();
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 240, [s, at] {
    at[0] = s->engine().now();
    s->send(ProcessorRef{0, 1}, ProcessorRef{1, 2}, 1500,
            [s, at] { at[3] = s->engine().now(); });
  });
  sim.send(ProcessorRef{0, 2}, ProcessorRef{1, 0}, 4800,
           [s, at] { at[1] = s->engine().now(); });
  sim.send(ProcessorRef{1, 3}, ProcessorRef{1, 3}, 64,
           [s, at] { at[2] = s->engine().now(); });
  sim.engine().run();
}

/// Everything a sample leaves observable.
struct Observed {
  std::array<SimTime, 4> delivered{};
  std::vector<TraceEvent> trace;
  std::uint64_t messages = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;
  SimTime end;
};

void observe(NetSim& sim, Observed& out) {
  sim.set_tracer([&out](const TraceEvent& ev) { out.trace.push_back(ev); });
  run_sample(sim, out.delivered);
  out.messages = sim.messages_delivered();
  out.retransmissions = sim.retransmissions();
  out.dropped = sim.messages_dropped();
  out.events = sim.engine().events_executed();
  out.end = sim.engine().now();
}

void expect_same(const Observed& want, const Observed& got) {
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.retransmissions, want.retransmissions);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.end, want.end);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    const TraceEvent& a = want.trace[i];
    const TraceEvent& b = got.trace[i];
    EXPECT_TRUE(a.kind == b.kind && a.at == b.at && a.src == b.src &&
                a.dst == b.dst && a.bytes == b.bytes)
        << "trace event " << i << ": " << TraceEvent::kind_name(b.kind)
        << " at " << b.at << ", want " << TraceEvent::kind_name(a.kind)
        << " at " << a.at;
  }
}

TEST_F(NetSimTest, ResetMatchesAFreshSimulator) {
  NetSimParams lossy;
  lossy.loss_rate = 0.3;
  lossy.rto = SimTime::millis(1);
  for (const NetSimParams& params : {NetSimParams{}, lossy}) {
    SCOPED_TRACE("loss_rate=" + std::to_string(params.loss_rate));
    Engine fresh_engine;
    NetSim fresh(fresh_engine, net_, params, Rng(5));
    Observed want;
    observe(fresh, want);
    if (params.loss_rate > 0.0) {
      ASSERT_GT(want.retransmissions, 0u) << "the sample lost nothing";
    }

    // A used simulator on another stream: faults, a tracer, and a message
    // still in flight.
    Engine engine;
    NetSim sim(engine, net_, params, Rng(77));
    std::array<SimTime, 4> ignored{};
    run_sample(sim, ignored);
    sim.host(ProcessorRef{0, 4}).crash();
    sim.host(ProcessorRef{1, 1}).set_slowdown(2.0);
    sim.channel(0).set_degradation(3.0);
    sim.channel(1).set_down(true);
    sim.set_tracer([](const TraceEvent&) {});
    sim.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 9000, [] {});
    engine.run_until(engine.now() + SimTime::micros(100));
    ASSERT_FALSE(engine.idle());

    sim.reset(Rng(5));
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(engine.now(), SimTime::zero());
    EXPECT_EQ(engine.events_executed(), 0u);
    EXPECT_EQ(sim.at_rest(), params.loss_rate == 0.0);
    // The faulted resources the sample never reached are restored too.
    EXPECT_TRUE(sim.host(ProcessorRef{0, 4}).alive());
    EXPECT_EQ(sim.host(ProcessorRef{1, 1}).slowdown(), 1.0);
    EXPECT_EQ(sim.channel(0).degradation(), 1.0);
    EXPECT_FALSE(sim.channel(1).down());
    Observed got;
    observe(sim, got);
    expect_same(want, got);

    // Once the tables have grown, a reset sample allocates nothing.
    std::array<SimTime, 4> warm{};
    const std::uint64_t before = heap_allocations();
    sim.reset(Rng(5));
    run_sample(sim, warm);
    EXPECT_EQ(heap_allocations() - before, 0u);
    EXPECT_EQ(warm, want.delivered);
    EXPECT_EQ(sim.retransmissions(), want.retransmissions);
  }
}

TEST_F(NetSimTest, AtRestNeedsEveryConditionOfTheShortcut) {
  // After a sample every host and channel it reserved is free by now():
  // at rest, unless one condition fails.
  const auto at_rest_after = [&](const std::function<void(NetSim&)>& disturb,
                                 NetSimParams params = {}) {
    Engine engine;
    NetSim sim(engine, net_, params, Rng(1));
    std::array<SimTime, 4> delivered{};
    run_sample(sim, delivered);
    disturb(sim);
    return sim.at_rest();
  };
  const SimTime us = SimTime::micros(1);
  EXPECT_TRUE(at_rest_after([](NetSim&) {}));
  EXPECT_TRUE(at_rest_after([](NetSim& s) {
    // Free exactly at now() counts as free.
    s.host(ProcessorRef{1, 5}).reserve(s.engine().now(), SimTime::zero());
  }));
  NetSimParams lossy;
  lossy.loss_rate = 0.01;
  EXPECT_FALSE(at_rest_after([](NetSim&) {}, lossy));
  EXPECT_FALSE(at_rest_after(
      [](NetSim& s) { s.set_tracer([](const TraceEvent&) {}); }));
  EXPECT_FALSE(at_rest_after(
      [&](NetSim& s) { s.engine().schedule_after(us, [] {}); }));
  EXPECT_FALSE(at_rest_after([&](NetSim& s) {
    s.host(ProcessorRef{1, 5}).reserve(s.engine().now(), us);
  }));
  EXPECT_FALSE(at_rest_after(
      [&](NetSim& s) { s.channel(1).reserve(s.engine().now(), us); }));
  EXPECT_FALSE(
      at_rest_after([](NetSim& s) { s.host(ProcessorRef{0, 2}).crash(); }));
  EXPECT_FALSE(at_rest_after(
      [](NetSim& s) { s.host(ProcessorRef{0, 2}).set_slowdown(1.5); }));
  EXPECT_FALSE(at_rest_after([](NetSim& s) { s.channel(0).set_down(true); }));
  EXPECT_FALSE(
      at_rest_after([](NetSim& s) { s.channel(0).set_degradation(2.0); }));
}

}  // namespace
}  // namespace netpart::sim
