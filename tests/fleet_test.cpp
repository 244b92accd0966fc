// Fleet subsystem tests (DESIGN.md §12): consistent-hash ring, per-node
// peer health, the wire format, epoch adoption, and the full MMPS control
// plane (gossip convergence, forwarding, hot replication, warm failover)
// on the deterministic simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fleet_lint.hpp"
#include "fleet/driver.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_telemetry.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/node.hpp"
#include "fleet/peer_table.hpp"
#include "fleet/wire.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/telemetry.hpp"
#include "mmps/manager_protocol.hpp"
#include "net/availability.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netpart {
namespace {

using fleet::HashRing;
using fleet::NodeId;
using fleet::PeerHealth;
using fleet::PeerTable;

// ------------------------------------------------------------- hash ring

TEST(HashRingTest, SameInputsSameRing) {
  const HashRing a({0, 1, 2, 3}, 16);
  const HashRing b({3, 2, 1, 0}, 16);  // construction order is irrelevant
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = rng.next_u64();
    EXPECT_EQ(a.replicas(key, 1).front(), b.replicas(key, 1).front());
    EXPECT_EQ(a.replicas(key, 3), b.replicas(key, 3));
  }
}

TEST(HashRingTest, OwnershipIsRoughlyBalanced) {
  // FNV-1a alone lattices vnodes of one node together (one node of four
  // owned ~90% of the space before the avalanche finalizer); this test
  // pins the fix.  With 16 vnodes/node the split is coarse, so the floor
  // is deliberately loose: every node owns at least half its fair share.
  const int kNodes = 4, kKeys = 20000;
  const HashRing ring({0, 1, 2, 3}, 16);
  std::map<NodeId, int> owned;
  Rng rng(2);
  for (int i = 0; i < kKeys; ++i) {
    owned[ring.replicas(rng.next_u64(), 1).front()]++;
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_GT(owned[n], kKeys / (2 * kNodes))
        << "node " << n << " owns " << owned[n] << "/" << kKeys;
  }
}

TEST(HashRingTest, RemovingANodeOnlyMovesItsOwnKeys) {
  // The property consistent hashing exists for: keys owned by survivors
  // keep their owner when a node leaves the ring.
  const HashRing full({0, 1, 2, 3}, 16);
  const HashRing without2({0, 1, 3}, 16);
  Rng rng(3);
  int moved = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next_u64();
    const NodeId before = full.replicas(key, 1).front();
    const NodeId after = without2.replicas(key, 1).front();
    if (before != 2) {
      EXPECT_EQ(after, before) << "survivor-owned key reassigned";
    } else {
      EXPECT_NE(after, 2);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0) << "node 2 owned nothing; balance is broken";
}

TEST(HashRingTest, ReplicasAreDistinctAndStartAtTheOwner) {
  const HashRing ring({0, 1, 2, 3}, 16);
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t key = rng.next_u64();
    const std::vector<NodeId> reps = ring.replicas(key, 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_EQ(reps[0], ring.replicas(key, 1).front());
    EXPECT_EQ(std::set<NodeId>(reps.begin(), reps.end()).size(), 3u);
  }
}

TEST(HashRingTest, ReplicationAboveNodeCountSaturatesAtAllNodes) {
  const HashRing ring({5, 9}, 8);
  const std::vector<NodeId> reps = ring.replicas(42, 6);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(std::set<NodeId>(reps.begin(), reps.end()),
            (std::set<NodeId>{5, 9}));
}

TEST(HashRingTest, SingleNodeOwnsEverythingAndWrapIsCovered) {
  const HashRing ring({7}, 4);
  Rng rng(5);
  bool wrapped = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = rng.next_u64();
    EXPECT_EQ(ring.replicas(key, 1).front(), 7);
    // lower_bound_index returning 0 covers both "before the first point"
    // and the wrap past the last point.
    wrapped = wrapped || ring.lower_bound_index(key) == 0;
  }
  EXPECT_TRUE(wrapped);
}

TEST(HashRingTest, RejectsDuplicateNodesAndEmptyLookups) {
  EXPECT_THROW(HashRing({1, 1}, 4), Error);
  EXPECT_THROW(HashRing({0, 1}, 0), Error);
  const HashRing empty({}, 4);
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW((void)empty.replicas(1, 1), Error);
  const HashRing ring({0, 1}, 4);
  EXPECT_THROW(ring.replicas(1, 0), Error);
}

// ------------------------------------------------------------ peer table

TEST(PeerTableTest, SilenceWalksAliveSuspectDead) {
  PeerTable t({0, 1, 2}, /*self=*/0, SimTime::zero());
  EXPECT_EQ(t.health(1), PeerHealth::Alive);
  t.tick(SimTime::millis(200));
  EXPECT_EQ(t.health(1), PeerHealth::Alive);
  t.tick(SimTime::millis(400));  // past suspect_after = 300ms
  EXPECT_EQ(t.health(1), PeerHealth::Suspect);
  EXPECT_EQ(t.health(2), PeerHealth::Suspect);
  t.tick(SimTime::millis(1000));  // past dead_after = 900ms
  EXPECT_EQ(t.health(1), PeerHealth::Dead);
  EXPECT_EQ(t.health(2), PeerHealth::Dead);
  EXPECT_EQ(t.ring_members(), (std::vector<NodeId>{0}));  // self only
}

TEST(PeerTableTest, HeartbeatRevivesASuspectButNeverADeadPeer) {
  PeerTable t({0, 1}, 0, SimTime::zero());
  t.tick(SimTime::millis(400));
  EXPECT_EQ(t.health(1), PeerHealth::Suspect);
  t.record_heartbeat(1, SimTime::millis(450));
  EXPECT_EQ(t.health(1), PeerHealth::Alive);

  t.tick(SimTime::millis(1400));  // silent again for > dead_after
  EXPECT_EQ(t.health(1), PeerHealth::Dead);
  t.record_heartbeat(1, SimTime::millis(1500));
  EXPECT_EQ(t.health(1), PeerHealth::Dead) << "fail-stop: no resurrection";
}

TEST(PeerTableTest, ReportDeadSkipsTheSuspicionWindowAndIsIdempotent) {
  PeerTable t({0, 1, 2}, 0, SimTime::zero());
  t.report_dead(2);
  EXPECT_EQ(t.health(2), PeerHealth::Dead);
  const std::uint64_t v = t.version();
  t.report_dead(2);  // idempotent: no second transition
  EXPECT_EQ(t.version(), v);
  t.report_dead(0);  // self-reports are ignored
  EXPECT_EQ(t.health(0), PeerHealth::Alive);
}

TEST(PeerTableTest, VersionBumpsOnTransitionsOnly) {
  PeerTable t({0, 1}, 0, SimTime::zero());
  const std::uint64_t v0 = t.version();
  t.record_heartbeat(1, SimTime::millis(10));  // alive -> alive: no bump
  EXPECT_EQ(t.version(), v0);
  t.tick(SimTime::millis(400));  // -> suspect
  const std::uint64_t v1 = t.version();
  EXPECT_GT(v1, v0);
  t.tick(SimTime::millis(401));  // suspect -> suspect: no bump
  EXPECT_EQ(t.version(), v1);
  t.record_heartbeat(1, SimTime::millis(500));  // -> alive
  EXPECT_GT(t.version(), v1);
}

TEST(PeerTableTest, RingMembersExcludeTheDeadAndIncludeSelf) {
  PeerTable t({0, 1, 2, 3}, 1, SimTime::zero());
  t.report_dead(3);
  t.tick(SimTime::millis(400));  // 0, 2 suspect; suspects stay in the ring
  EXPECT_EQ(t.ring_members(), (std::vector<NodeId>{0, 1, 2}));
}

// ------------------------------------------------------------ wire format

TEST(FleetWireTest, ScalarRoundTripAndCanonicalFloats) {
  fleet::WireWriter w;
  w.u8(0xab).u64(0x0123456789abcdefULL).i32(-7).i64(-1)
      .f64(-0.0).f64(std::numeric_limits<double>::quiet_NaN()).str("ring");
  const std::vector<std::byte> bytes = w.take();
  fleet::WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -1);
  const double zero = r.f64();
  EXPECT_EQ(zero, 0.0);
  EXPECT_FALSE(std::signbit(zero)) << "-0.0 must canonicalise to +0.0";
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.str(), "ring");
  EXPECT_TRUE(r.exhausted());
}

TEST(FleetWireTest, TruncatedPayloadsThrowInsteadOfReadingGarbage) {
  fleet::WireWriter w;
  w.u64(12345).str("hello");
  std::vector<std::byte> bytes = w.take();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                bytes.size() - 1}) {
    std::vector<std::byte> cut_bytes(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    fleet::WireReader r(cut_bytes);
    EXPECT_THROW((void)(r.u64(), r.str()), Error) << "cut at " << cut;
  }
}

TEST(FleetWireTest, AnnounceAndForwardRoundTrip) {
  const fleet::EpochAnnounce a{/*from=*/3, /*epoch=*/41};
  const fleet::EpochAnnounce a2 = fleet::decode_announce(
      fleet::encode_announce(a));
  EXPECT_EQ(a2.from, 3);
  EXPECT_EQ(a2.epoch, 41u);
  std::vector<std::byte> padded = fleet::encode_announce(a);
  padded.push_back(std::byte{0});
  EXPECT_THROW(fleet::decode_announce(padded), InvalidArgument);

  fleet::ForwardEnvelope f;
  f.from = 2;
  f.routing_key = 0x1122334455667788ULL;
  f.reply_tag = 77;
  f.request = fleet::workload_request(9);
  f.request.rate_milli = {1000, 2500};
  const fleet::ForwardEnvelope f2 = fleet::decode_forward(
      fleet::encode_forward(f));
  EXPECT_EQ(f2.from, 2);
  EXPECT_EQ(f2.routing_key, f.routing_key);
  EXPECT_EQ(f2.reply_tag, 77);
  EXPECT_EQ(f2.request.rate_milli, f.request.rate_milli);
  // The decoded request must hash to the original's key (the forward
  // contract: both sides compute identical cache keys).
  EXPECT_EQ(svc::request_key(f2.request, 5, 1),
            svc::request_key(f.request, 5, 1));
}

TEST(FleetWireTest, DecisionRoundTripPreservesEverythingServed) {
  svc::PartitionDecision d;
  d.key = 0xfeedface;
  d.epoch = 6;
  d.partition = PartitionVector(std::vector<std::int64_t>{30, 20, 10});
  d.config = {2, 1};
  d.placement = {{0, 0}, {0, 1}, {1, 0}};
  d.t_c_ms = 12.25;
  d.evaluations = 99;
  fleet::WireWriter w;
  fleet::encode_decision_into(w, d);
  const std::vector<std::byte> bytes = w.take();
  fleet::WireReader r(bytes);
  const svc::PartitionDecision d2 = fleet::decode_decision_from(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(d2.key, d.key);
  EXPECT_EQ(d2.epoch, 6u);
  EXPECT_EQ(d2.partition.to_string(), d.partition.to_string());
  EXPECT_EQ(d2.config, d.config);
  EXPECT_EQ(d2.placement, d.placement);
  EXPECT_DOUBLE_EQ(d2.t_c_ms, 12.25);
  EXPECT_EQ(d2.evaluations, 99u);
}

/// Overwrites the little-endian u64 at `offset` of an encoded frame.
void poke_u64(std::vector<std::byte>& bytes, std::size_t offset,
              std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

TEST(FleetWireTest, DecisionCountBeyondTheFrameIsRejected) {
  svc::PartitionDecision d;
  d.partition = PartitionVector(std::vector<std::int64_t>{30, 20, 10});
  d.config = {2, 1};
  fleet::WireWriter w;
  fleet::encode_decision_into(w, d);
  std::vector<std::byte> bytes = w.take();
  // key, epoch, t_c_ms and evaluations, then the rank count.
  poke_u64(bytes, 32, std::uint64_t{1} << 62);
  fleet::WireReader r(bytes);
  EXPECT_THROW(fleet::decode_decision_from(r), InvalidArgument);
}

TEST(FleetWireTest, ForwardWithBadKindOrRateCountIsRejected) {
  fleet::ForwardEnvelope f;
  f.request = fleet::workload_request(9);
  f.request.rate_milli = {1000, 2500};
  const std::vector<std::byte> good = fleet::encode_forward(f);
  // from, routing key, reply tag and an absent trace context, then the
  // request's kind byte.
  std::vector<std::byte> bad_kind = good;
  bad_kind[24] = std::byte{7};
  EXPECT_THROW(fleet::decode_forward(bad_kind), InvalidArgument);
  // The rate count precedes the two i32 rates that end the frame.
  std::vector<std::byte> bad_count = good;
  poke_u64(bad_count, good.size() - 16, std::uint64_t{1} << 62);
  EXPECT_THROW(fleet::decode_forward(bad_count), InvalidArgument);
}

TEST(FleetWireTest, ForwardReplyRoundTripsAndTruncationIsRejected) {
  fleet::ForwardReply reply;
  reply.ok = true;
  reply.hit = true;
  reply.received_us = 1250.5;
  reply.ready_us = 1330.5;
  svc::PartitionDecision d;
  d.key = 0xfeedface;
  d.partition = PartitionVector(std::vector<std::int64_t>{30, 20, 10});
  d.config = {2, 1};
  d.placement = {{0, 0}, {0, 1}, {1, 0}};
  reply.decision = std::make_shared<const svc::PartitionDecision>(d);
  const std::vector<std::byte> bytes = fleet::encode_forward_reply(reply);

  // The layout relays on the wire: status, hit, the two stamps, then the
  // decision in its replication encoding.
  fleet::WireWriter layout;
  layout.u8(1).u8(1).f64(1250.5).f64(1330.5);
  fleet::encode_decision_into(layout, d);
  EXPECT_EQ(bytes, layout.take());

  const fleet::ForwardReply back = fleet::decode_forward_reply(bytes);
  EXPECT_TRUE(back.ok);
  EXPECT_TRUE(back.hit);
  EXPECT_EQ(back.received_us, 1250.5);
  EXPECT_EQ(back.ready_us, 1330.5);
  ASSERT_NE(back.decision, nullptr);
  EXPECT_EQ(back.decision->partition.to_string(), d.partition.to_string());
  EXPECT_EQ(back.decision->placement, d.placement);

  const std::vector<std::byte> failure =
      fleet::encode_forward_reply(fleet::ForwardReply{});
  EXPECT_EQ(failure.size(), 2u);
  EXPECT_FALSE(fleet::decode_forward_reply(failure).ok);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::byte> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(fleet::decode_forward_reply(truncated), InvalidArgument)
        << "cut at " << cut;
  }
}

// ------------------------------------------------------------- fleet node

TEST(FleetNodeTest, AdoptingANewerEpochPurgesCacheAndHeat) {
  fleet::NodeOptions options;
  options.hot_threshold = 2;
  fleet::FleetNode node(0, {0, 1}, SimTime::zero(), {}, options);
  auto d = std::make_shared<svc::PartitionDecision>();
  d->key = 11;
  d->epoch = node.epoch();
  node.cache().insert(d);
  EXPECT_FALSE(node.record_hit(11, 101));
  EXPECT_TRUE(node.record_hit(11, 101)) << "threshold crossing replicates";
  EXPECT_FALSE(node.record_hit(11, 101)) << "only the crossing, only once";
  ASSERT_EQ(node.hot_entries().size(), 1u);

  EXPECT_FALSE(node.observe_epoch(node.epoch())) << "same epoch: no adopt";
  EXPECT_TRUE(node.observe_epoch(node.epoch() + 1));
  EXPECT_EQ(node.cache().size(), 0u) << "stale entries purged";
  EXPECT_TRUE(node.hot_entries().empty()) << "stale heat reset";
}

TEST(FleetNodeTest, RingRebuildsWhenThePeerTableTransitions) {
  fleet::FleetNode node(0, {0, 1, 2}, SimTime::zero(), {}, {});
  EXPECT_EQ(node.ring().num_nodes(), 3);
  node.peers().report_dead(2);
  EXPECT_EQ(node.ring().num_nodes(), 2) << "dead peer left the ring";
  EXPECT_EQ(node.ring().nodes(), (std::vector<NodeId>{0, 1}));
}

// ------------------------------------------- decision cache (satellite)

TEST(DecisionCacheShardTest, ShardSnapshotsSumToTheGlobalView) {
  svc::DecisionCache cache(/*capacity=*/64, /*shards=*/4);
  EXPECT_EQ(cache.num_shards(), 4);
  EXPECT_EQ(cache.shard_capacity(), 16u);
  for (std::uint64_t k = 1; k <= 40; ++k) {
    auto d = std::make_shared<svc::PartitionDecision>();
    d->key = k * 0x9e3779b97f4a7c15ULL;  // spread across shards
    d->epoch = 1;
    cache.insert(d);
    if (k % 2 == 0) {
      EXPECT_NE(cache.lookup(d->key), nullptr);
    }
  }
  (void)cache.lookup(0xdead);  // one global miss

  const std::vector<svc::DecisionCache::ShardSnapshot> shards =
      cache.shard_stats();
  ASSERT_EQ(shards.size(), 4u);
  std::size_t total_size = 0;
  std::uint64_t total_hits = 0, total_misses = 0;
  int populated = 0;
  for (const auto& s : shards) {
    EXPECT_LE(s.size, cache.shard_capacity());
    total_size += s.size;
    total_hits += s.stats.hits;
    total_misses += s.stats.misses;
    if (s.size > 0) ++populated;
  }
  EXPECT_EQ(total_size, cache.size());
  EXPECT_EQ(total_hits, cache.stats().hits);
  EXPECT_EQ(total_misses, cache.stats().misses);
  EXPECT_EQ(total_hits, 20u);
  EXPECT_GE(populated, 2) << "well-spread keys must touch several shards";
}

// --------------------------------------------------------- fleet on MMPS

struct FleetBed {
  Network net;
  sim::Engine engine;
  sim::NetSim sim;
  fleet::Fleet fl;

  explicit FleetBed(int nodes, fleet::FleetOptions options = {},
                    std::uint64_t seed = 1)
      : net(fleet::make_fleet_network(nodes)),
        sim(engine, net, sim::NetSimParams{}, Rng(seed)),
        fl(sim, options, fleet::synthetic_cold_path(net)) {
    fl.start();
  }
  ~FleetBed() { fl.stop(); }
};

/// Step until `done` returns true or `max_steps` engine events elapse.
template <typename Pred>
bool step_until(sim::Engine& engine, Pred done, int max_steps = 200000) {
  for (int i = 0; i < max_steps; ++i) {
    if (done()) return true;
    if (!engine.step()) return done();
  }
  return done();
}

TEST(FleetTest, EpochGossipConvergesWithinTwoNRounds) {
  for (const int nodes : {2, 4, 8}) {
    fleet::FleetOptions options;
    // Quiesce heartbeats so convergence is attributable to the gossip
    // ring alone (heartbeats piggyback epochs and only accelerate).
    options.heartbeat_period = SimTime::seconds(100);
    options.peer.suspect_after = SimTime::seconds(300);
    options.peer.dead_after = SimTime::seconds(600);
    FleetBed bed(nodes, options);
    const std::uint64_t epoch = 7;
    bed.fl.announce_epoch(0, epoch);
    const auto converged = [&] {
      for (NodeId id : bed.fl.node_ids()) {
        if (bed.fl.node(id).epoch() != epoch) return false;
      }
      return true;
    };
    EXPECT_TRUE(step_until(bed.engine, converged));
    EXPECT_LE(bed.fl.stats().gossip_rounds,
              2 * static_cast<std::uint64_t>(nodes))
        << nodes << " nodes";
  }
}

TEST(FleetTest, NonOwnerEntryForwardsAndOwnerEntryServesLocally) {
  FleetBed bed(4);
  const svc::PartitionRequest req = fleet::workload_request(1);
  const NodeId owner =
      bed.fl.node(0).ring().replicas(bed.fl.routing_key(req), 1).front();
  const NodeId not_owner = (owner + 1) % 4;

  fleet::FleetReply last;
  int replies = 0;
  const auto done = [&](const fleet::FleetReply& r) {
    last = r;
    ++replies;
  };
  bed.fl.submit(req, not_owner, done);
  ASSERT_TRUE(step_until(bed.engine, [&] { return replies == 1; }));
  EXPECT_TRUE(last.ok);
  EXPECT_FALSE(last.cache_hit) << "first sight of the key: a cold compute";
  EXPECT_EQ(last.served_by, owner);
  EXPECT_EQ(bed.fl.stats().forwards, 1u);
  EXPECT_GT(last.latency, SimTime::zero());

  bed.fl.submit(req, owner, done);
  ASSERT_TRUE(step_until(bed.engine, [&] { return replies == 2; }));
  EXPECT_TRUE(last.ok);
  EXPECT_TRUE(last.cache_hit) << "owner cached the forwarded compute";
  EXPECT_EQ(bed.fl.stats().forwards, 1u) << "owner entry never forwards";
  EXPECT_EQ(bed.fl.stats().local_serves, 1u);
}

TEST(FleetTest, HotKeysReplicateAtTheThresholdAndWarmTheReplicas) {
  fleet::FleetOptions options;
  options.replication = 2;
  options.node.hot_threshold = 2;
  FleetBed bed(4, options);
  const svc::PartitionRequest req = fleet::workload_request(2);
  const std::uint64_t rk = bed.fl.routing_key(req);
  const std::vector<NodeId> reps = bed.fl.node(0).ring().replicas(rk, 2);

  int replies = 0;
  const auto done = [&](const fleet::FleetReply&) { ++replies; };
  // 1 cold + hot_threshold hits at the owner crosses the threshold once.
  for (int i = 0; i < 3; ++i) bed.fl.submit(req, reps[0], done);
  ASSERT_TRUE(step_until(bed.engine, [&] { return replies == 3; }));
  ASSERT_TRUE(step_until(bed.engine, [&] {
    return bed.fl.stats().replica_inserts >= 1;
  }));
  EXPECT_EQ(bed.fl.stats().replications_pushed, 1u);
  EXPECT_EQ(bed.fl.stats().replica_inserts, 1u);

  // The replica now answers for the owner's key without forwarding.
  const std::uint64_t cache_key =
      svc::request_key(req, bed.fl.signature(), bed.fl.node(reps[1]).epoch());
  EXPECT_NE(bed.fl.node(reps[1]).cache().peek(cache_key), nullptr);
  EXPECT_EQ(bed.fl.warm_fraction_for(reps[0]), 1.0);

  const std::uint64_t forwards_before = bed.fl.stats().forwards;
  bed.fl.submit(req, reps[1], done);
  ASSERT_TRUE(step_until(bed.engine, [&] { return replies == 4; }));
  EXPECT_EQ(bed.fl.stats().forwards, forwards_before)
      << "warm replica serves without a forward hop";
  EXPECT_EQ(bed.fl.stats().replica_serves, 1u);
}

TEST(FleetTest, StaleReplicationPushesAreDroppedByNewerEpochs) {
  fleet::FleetOptions options;
  options.replication = 2;
  options.node.hot_threshold = 1;
  // Quiesce heartbeats/gossip so the replica's epoch stays ahead.
  options.heartbeat_period = SimTime::seconds(100);
  options.gossip_period = SimTime::seconds(100);
  options.peer.suspect_after = SimTime::seconds(300);
  options.peer.dead_after = SimTime::seconds(600);
  FleetBed bed(4, options);
  const svc::PartitionRequest req = fleet::workload_request(3);
  const std::vector<NodeId> reps =
      bed.fl.node(0).ring().replicas(bed.fl.routing_key(req), 2);
  // The replica has already adopted a newer epoch than the owner.
  ASSERT_TRUE(bed.fl.node(reps[1]).observe_epoch(
      bed.fl.node(reps[0]).epoch() + 1));

  int replies = 0;
  const auto done = [&](const fleet::FleetReply&) { ++replies; };
  bed.fl.submit(req, reps[0], done);  // cold
  bed.fl.submit(req, reps[0], done);  // hit -> crosses threshold -> push
  ASSERT_TRUE(step_until(bed.engine, [&] {
    return replies == 2 && bed.fl.stats().replications_pushed >= 1;
  }));
  // Give the in-flight push ample steps to land: it must be rejected,
  // not inserted.  (The fleet's periodic loops keep the event queue
  // non-empty forever, so the drain must be step-bounded.)
  (void)step_until(bed.engine,
                   [&] { return bed.fl.stats().replica_inserts > 0; },
                   /*max_steps=*/5000);
  EXPECT_EQ(bed.fl.stats().replica_inserts, 0u)
      << "a push computed under an older epoch must not enter the cache";
}

TEST(FleetTest, DeadPeerReportsRerouteWithoutTimeouts) {
  fleet::FleetOptions options;
  options.replication = 2;
  FleetBed bed(4, options);
  // Find a key owned by node 3 so its death matters to this request.
  svc::PartitionRequest req;
  std::vector<NodeId> reps;
  for (int k = 0; k < 64; ++k) {
    req = fleet::workload_request(k);
    reps = bed.fl.node(0).ring().replicas(bed.fl.routing_key(req), 2);
    if (reps[0] == 3) break;
  }
  ASSERT_EQ(reps[0], 3) << "no key owned by node 3 in 64 tries";

  bed.sim.host(ProcessorRef{3, 0}).crash();
  bed.fl.report_dead_peers({3});
  EXPECT_FALSE(bed.fl.node_alive(3));

  fleet::FleetReply last;
  int replies = 0;
  bed.fl.submit(req, 0, [&](const fleet::FleetReply& r) {
    last = r;
    ++replies;
  });
  ASSERT_TRUE(step_until(bed.engine, [&] { return replies == 1; }));
  EXPECT_TRUE(last.ok);
  EXPECT_NE(last.served_by, 3);
  EXPECT_EQ(last.failovers, 0)
      << "a reported death reroutes at submit time, no RTO spent";
  // The surviving nodes rebuilt their rings without the dead peer.
  EXPECT_EQ(bed.fl.node(0).ring().num_nodes(), 3);
}

TEST(FleetTest, WorkloadIsDeterministicForAGivenSeed) {
  const auto run = [](std::uint64_t seed) {
    fleet::FleetOptions options;
    options.replication = 2;
    FleetBed bed(4, options, seed);
    fleet::WorkloadOptions w;
    w.requests = 60;
    w.seed = seed;
    const fleet::WorkloadResult r = fleet::run_workload(bed.fl, w);
    return std::tuple(r.ok, r.hit_replies, r.rps, bed.fl.stats().forwards,
                      r.mean_latency_ms);
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b) << "same seed, same simulated history";
  EXPECT_NE(std::get<2>(a), std::get<2>(c)) << "seeds must matter";
}

TEST(FleetTest, MalformedControlFramesAreCountedAndDropped) {
  FleetBed bed(3);
  // Mid-workload, a host that runs no fleet node sends node 1 a one-byte
  // frame on each of the four control tags.
  const std::int32_t tags[] = {fleet::kHeartbeatTag, fleet::kGossipTag,
                               fleet::kForwardTag, fleet::kReplicateTag};
  bed.engine.schedule_after(SimTime::millis(20), [&] {
    for (const std::int32_t tag : tags) {
      bed.fl.mmps().send(ProcessorRef{0, 1}, ProcessorRef{1, 0}, tag,
                         std::vector<std::byte>{std::byte{1}});
    }
  });
  fleet::WorkloadOptions w;
  w.requests = 120;
  const fleet::WorkloadResult r = fleet::run_workload(bed.fl, w);
  EXPECT_EQ(r.ok + r.failed, r.submitted);
  EXPECT_EQ(r.ok, r.submitted) << "a dropped frame fails no request";

  const std::string metrics =
      obs::merged_metrics_text(
          fleet::FleetTelemetry(bed.fl).metric_sources());
  EXPECT_NE(metrics.find("counter fleet.bad_frames{node=1} 4\n"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("fleet.bad_frames{node=0}"), std::string::npos)
      << "the counter exists only where a bad frame landed";
}

TEST(FleetTest, UndecodableForwardIsAnsweredWithAFailureBeforeTheRto) {
  FleetBed bed(3);
  // Node 0 sends node 1 a forward whose header (relay, routing key, reply
  // tag) decodes but whose request is cut short.  Node 1 must answer on
  // the reply tag with ok = false instead of leaving the relay to wait out
  // its RTO.  A second such frame whose header names no fleet node is
  // dropped.  Both count as bad frames.
  constexpr std::int32_t kReplyTag = 1 << 30;  // no forward reaches it
  fleet::ForwardEnvelope envelope;
  envelope.from = 0;
  envelope.routing_key = 7;
  envelope.reply_tag = kReplyTag;
  envelope.request = fleet::workload_request(0);
  std::vector<std::byte> frame = fleet::encode_forward(envelope);
  frame.resize(frame.size() - 3);
  envelope.from = 99;
  std::vector<std::byte> stray = fleet::encode_forward(envelope);
  stray.resize(stray.size() - 3);

  const ProcessorRef relay{0, 0};
  const ProcessorRef owner{1, 0};
  const SimTime sent = bed.engine.now();
  const SimTime rto = bed.fl.options().forward_timeout;
  bed.fl.mmps().send(relay, owner, fleet::kForwardTag, std::move(stray));
  bed.fl.mmps().send(relay, owner, fleet::kForwardTag, std::move(frame));
  std::optional<fleet::ForwardReply> reply;
  std::optional<SimTime> answered_at;
  bool timed_out = false;
  bed.fl.mmps().recv_with_timeout(
      relay, owner, kReplyTag, rto,
      [&](mmps::Message msg) {
        reply = fleet::decode_forward_reply(msg.payload);
        answered_at = bed.engine.now();
      },
      [&] { timed_out = true; });
  ASSERT_TRUE(step_until(bed.engine, [&] { return reply || timed_out; }));
  ASSERT_TRUE(reply.has_value()) << "the relay waited out its RTO";
  EXPECT_FALSE(reply->ok);
  EXPECT_LT(*answered_at - sent, rto);

  const std::string metrics =
      obs::merged_metrics_text(
          fleet::FleetTelemetry(bed.fl).metric_sources());
  EXPECT_NE(metrics.find("counter fleet.bad_frames{node=1} 2\n"),
            std::string::npos)
      << metrics;
}

// ------------------------------------------------- distributed tracing

TEST(FleetWireTest, TraceContextRoundTripsAndAbsenceDecodesInvalid) {
  obs::TraceContext ctx;
  ctx.trace_id = 0x1111222233334444ULL;
  ctx.span_id = 0x5555666677778888ULL;
  ctx.parent_span_id = 0x99aabbccddeeff00ULL;
  fleet::WireWriter w;
  fleet::encode_trace_context_into(w, ctx);
  const std::vector<std::byte> bytes = w.take();
  EXPECT_EQ(bytes.size(), 8u + 24u) << "length prefix + three u64 ids";
  fleet::WireReader r(bytes);
  const obs::TraceContext back = fleet::decode_trace_context_from(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back, ctx);

  // An invalid context encodes as the absent field (length 0) and decodes
  // back invalid: untraced requests pay 8 wire bytes, not 32.
  fleet::WireWriter w2;
  fleet::encode_trace_context_into(w2, obs::TraceContext{});
  const std::vector<std::byte> bytes2 = w2.take();
  EXPECT_EQ(bytes2.size(), 8u);
  fleet::WireReader r2(bytes2);
  EXPECT_FALSE(fleet::decode_trace_context_from(r2).valid());
  EXPECT_TRUE(r2.exhausted());
}

TEST(FleetWireTest, ForwardAndReplicateEnvelopesCarryTheTraceContext) {
  fleet::ForwardEnvelope f;
  f.from = 1;
  f.routing_key = 99;
  f.reply_tag = 5;
  f.trace = obs::TraceContext{0xaaa, 0xbbb, 0xccc};
  f.request = fleet::workload_request(4);
  const fleet::ForwardEnvelope f2 =
      fleet::decode_forward(fleet::encode_forward(f));
  EXPECT_EQ(f2.trace, f.trace);

  svc::PartitionDecision decision;
  decision.key = 0xfeed;
  decision.epoch = 2;
  decision.partition = PartitionVector(std::vector<std::int64_t>{3, 1});
  const fleet::ReplicateEnvelope rep{
      obs::TraceContext{7, 8, 9},
      std::make_shared<const svc::PartitionDecision>(decision)};
  const fleet::ReplicateEnvelope rep2 =
      fleet::decode_replicate(fleet::encode_replicate(rep));
  EXPECT_EQ(rep2.trace, rep.trace);
  EXPECT_EQ(rep2.decision->key, 0xfeedu);
  EXPECT_EQ(rep2.decision->epoch, 2u);
  EXPECT_EQ(rep2.decision->partition.to_string(),
            decision.partition.to_string());
}

std::optional<obs::SpanRecord> find_span(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

TEST(FleetTraceTest, ForwardedServeJoinsTheRouterTraceAcrossTheWire) {
  fleet::FleetOptions options;
  options.tracing = true;
  options.trace_seed = 21;
  FleetBed bed(4, options);
  const svc::PartitionRequest req = fleet::workload_request(1);
  const NodeId owner =
      bed.fl.node(0).ring().replicas(bed.fl.routing_key(req), 1).front();
  const NodeId entry = (owner + 1) % 4;
  int replies = 0;
  bed.fl.submit(req, entry, [&](const fleet::FleetReply&) { ++replies; });
  ASSERT_TRUE(step_until(bed.engine, [&] { return replies == 1; }));

  const auto request = find_span(bed.fl.node(entry).telemetry().spans(),
                                 "fleet.request");
  const auto forward = find_span(bed.fl.node(entry).telemetry().spans(),
                                 "fleet.forward");
  const auto serve = find_span(bed.fl.node(owner).telemetry().spans(),
                               "fleet.serve");
  ASSERT_TRUE(request.has_value());
  ASSERT_TRUE(forward.has_value());
  ASSERT_TRUE(serve.has_value()) << "owner recorded no serve span";
  EXPECT_NE(request->trace_id, 0u);
  EXPECT_EQ(request->parent_span_id, 0u) << "the request span is the root";
  EXPECT_EQ(forward->trace_id, request->trace_id);
  EXPECT_EQ(forward->parent_span_id, request->span_id);
  EXPECT_EQ(serve->trace_id, request->trace_id)
      << "trace id must survive the MMPS hop";
  EXPECT_EQ(serve->parent_span_id, forward->span_id)
      << "the owner's serve span parents under the router's forward span";
  EXPECT_NE(serve->span_id, forward->span_id)
      << "the owner draws its own span id from its own stream";
}

TEST(FleetTraceTest, TracingOffRecordsNoSpansAndNoWireContext) {
  FleetBed bed(2);  // options.tracing defaults off
  const svc::PartitionRequest req = fleet::workload_request(1);
  const NodeId owner =
      bed.fl.node(0).ring().replicas(bed.fl.routing_key(req), 1).front();
  int replies = 0;
  bed.fl.submit(req, (owner + 1) % 2,
                [&](const fleet::FleetReply&) { ++replies; });
  ASSERT_TRUE(step_until(bed.engine, [&] { return replies == 1; }));
  for (NodeId id : bed.fl.node_ids()) {
    EXPECT_EQ(bed.fl.node(id).telemetry().span_count(), 0u) << "node " << id;
    EXPECT_FALSE(bed.fl.node(id).new_root().valid());
  }
}

TEST(FleetTelemetryTest, MergedExportsAreByteIdenticalForASeed) {
  const auto run = [](std::uint64_t seed) {
    fleet::FleetOptions options;
    options.replication = 2;
    options.tracing = true;
    options.trace_seed = seed;
    FleetBed bed(4, options, seed);
    fleet::WorkloadOptions w;
    w.requests = 80;
    w.seed = seed;
    (void)fleet::run_workload(bed.fl, w);
    fleet::FleetTelemetry ft(bed.fl);
    std::ostringstream trace;
    obs::write_chrome_trace(trace, ft.lanes());
    return std::pair(obs::merged_metrics_text(ft.metric_sources()),
                     trace.str());
  };
  const auto a = run(9);
  const auto b = run(9);
  EXPECT_EQ(a.first, b.first)
      << "merged metrics must be byte-identical across same-seed runs";
  EXPECT_EQ(a.second, b.second)
      << "merged chrome trace must be byte-identical across same-seed runs";

  // The merged dump carries the per-hop attribution histograms, the
  // node-dimensioned rows, and the loss counters.
  EXPECT_NE(a.first.find("latency fleet.request.route_us"),
            std::string::npos);
  EXPECT_NE(a.first.find("latency fleet.request.total_us"),
            std::string::npos);
  EXPECT_NE(a.first.find("{node=0}"), std::string::npos);
  EXPECT_NE(a.first.find("counter sim.messages_dropped"), std::string::npos);
  EXPECT_NE(a.second.find("node0"), std::string::npos)
      << "per-node pid lanes must be named in the merged trace";
}

TEST(FleetTelemetryTest, HealthRowsSumToTheWorkload) {
  fleet::FleetOptions options;
  options.replication = 2;
  FleetBed bed(4, options);
  fleet::WorkloadOptions w;
  w.requests = 60;
  const fleet::WorkloadResult r = fleet::run_workload(bed.fl, w);
  ASSERT_EQ(r.ok, 60u);
  fleet::FleetTelemetry ft(bed.fl);
  const std::vector<fleet::NodeHealth> health = ft.health();
  ASSERT_EQ(health.size(), 4u);
  std::uint64_t requests = 0;
  for (const fleet::NodeHealth& h : health) {
    EXPECT_TRUE(h.alive);
    EXPECT_GE(h.forward_ratio, 0.0);
    EXPECT_LE(h.forward_ratio, 1.0);
    EXPECT_EQ(h.dead_peers, 0);
    requests += h.requests;
  }
  EXPECT_EQ(requests, 60u) << "entry nodes account for every request once";
  const std::string text = ft.health_text();
  EXPECT_NE(text.find("node 0 alive=1"), std::string::npos);
  EXPECT_NE(text.find("dead_peers=0"), std::string::npos);
}

// ------------------------------------------------------------ fleet lint

TEST(FleetLintTest, ParseRoundTripsAndRejectsUnknownKeys) {
  const analysis::FleetLintConfig c = analysis::parse_fleet_config(
      "nodes=8,replication=3,vnodes=64,hot_threshold=5,heartbeat_ms=20,"
      "gossip_ms=10,"
      "suspect_ms=60,dead_ms=180,forward_timeout_ms=50");
  EXPECT_EQ(c.nodes, 8);
  EXPECT_EQ(c.replication, 3);
  EXPECT_EQ(c.vnodes, 64);
  EXPECT_EQ(c.hot_threshold, 5);
  EXPECT_DOUBLE_EQ(c.dead_ms, 180.0);
  EXPECT_THROW(analysis::parse_fleet_config("nodes=4,bogus=1"), ConfigError);
  EXPECT_THROW(analysis::parse_fleet_config("nodes"), ConfigError);
  EXPECT_THROW(analysis::parse_fleet_config("nodes=four"), ConfigError);
}

std::vector<std::string> codes_of(const analysis::DiagnosticSink& sink) {
  std::vector<std::string> codes;
  for (const auto& d : sink.diagnostics()) codes.push_back(d.code);
  return codes;
}

TEST(FleetLintTest, EveryCodeFires) {
  using analysis::FleetLintConfig;
  const auto lint = [](FleetLintConfig config) {
    analysis::DiagnosticSink sink;
    analysis::lint_fleet_config(config, "<test>", sink);
    return sink;
  };

  FleetLintConfig bad_repl;
  bad_repl.nodes = 2;
  bad_repl.replication = 3;
  {
    const auto sink = lint(bad_repl);
    EXPECT_GE(sink.errors(), 1);
    const auto codes = codes_of(sink);
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F001"), codes.end());
  }

  FleetLintConfig bad_nodes;
  bad_nodes.nodes = 0;
  {
    const auto codes = codes_of(lint(bad_nodes));
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F002"), codes.end());
  }

  FleetLintConfig coarse;
  coarse.nodes = 4;
  coarse.vnodes = 2;  // warning: too coarse to balance
  {
    const auto sink = lint(coarse);
    EXPECT_EQ(sink.errors(), 0);
    const auto codes = codes_of(sink);
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F003"), codes.end());
  }

  FleetLintConfig bad_order;
  bad_order.nodes = 2;
  bad_order.suspect_ms = 900;
  bad_order.dead_ms = 300;  // dead <= suspect skips Suspect entirely
  {
    const auto codes = codes_of(lint(bad_order));
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F004"), codes.end());
  }

  FleetLintConfig no_replicas;
  no_replicas.nodes = 4;
  no_replicas.replication = 1;  // warning: every failover is cold
  {
    const auto sink = lint(no_replicas);
    EXPECT_EQ(sink.errors(), 0);
    const auto codes = codes_of(sink);
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F005"), codes.end());
  }

  FleetLintConfig flappy;
  flappy.nodes = 2;
  flappy.heartbeat_ms = 400;  // >= suspect_ms: healthy peers oscillate
  {
    const auto codes = codes_of(lint(flappy));
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F006"), codes.end());
  }
}

TEST(FleetLintTest, ObservabilityPathsParseAndNPF007Fires) {
  using analysis::FleetLintConfig;
  const FleetLintConfig parsed = analysis::parse_fleet_config(
      "nodes=4,trace_out=t.json,metrics_out=m.txt,health_out=h.txt");
  EXPECT_EQ(parsed.trace_out, "t.json");
  EXPECT_EQ(parsed.metrics_out, "m.txt");
  EXPECT_EQ(parsed.health_out, "h.txt");

  const auto lint = [](FleetLintConfig config) {
    analysis::DiagnosticSink sink;
    analysis::lint_fleet_config(config, "<test>", sink);
    return sink;
  };

  FleetLintConfig clash;
  clash.nodes = 2;
  clash.trace_out = "out.json";
  clash.metrics_out = "out.json";  // the later export clobbers the earlier
  {
    const auto sink = lint(clash);
    EXPECT_GE(sink.errors(), 1);
    const auto codes = codes_of(sink);
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F007"), codes.end());
  }

  FleetLintConfig missing_dir;
  missing_dir.nodes = 2;
  missing_dir.health_out = "/no/such/dir/health.txt";
  {
    const auto codes = codes_of(lint(missing_dir));
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F007"), codes.end());
  }

  FleetLintConfig is_dir;
  is_dir.nodes = 2;
  is_dir.metrics_out = "/tmp";  // a directory, not a file path
  {
    const auto codes = codes_of(lint(is_dir));
    EXPECT_NE(std::find(codes.begin(), codes.end(), "NP-F007"), codes.end());
  }

  FleetLintConfig good;
  good.nodes = 2;
  good.trace_out = "trace.json";
  good.metrics_out = "metrics.txt";
  good.health_out = "health.txt";
  EXPECT_EQ(lint(good).errors(), 0)
      << "distinct relative paths in a writable cwd pass";
  EXPECT_NO_THROW(analysis::require_fleet(good));
}

TEST(FleetLintTest, RequireFleetThrowsOnErrorsAndPassesWarnings) {
  analysis::FleetLintConfig bad;
  bad.nodes = 2;
  bad.replication = 5;
  EXPECT_THROW(analysis::require_fleet(bad), InvalidArgument);

  analysis::FleetLintConfig warn_only;
  warn_only.nodes = 4;
  warn_only.replication = 1;  // NP-F005 warning
  EXPECT_NO_THROW(analysis::require_fleet(warn_only));
}

}  // namespace
}  // namespace netpart
