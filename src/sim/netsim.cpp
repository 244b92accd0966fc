#include "sim/netsim.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace netpart::sim {

NetSim::NetSim(Engine& engine, const Network& network, NetSimParams params,
               Rng rng)
    : engine_(engine), network_(network), params_(params), rng_(rng) {
  NP_REQUIRE(params_.loss_rate >= 0.0 && params_.loss_rate < 1.0,
             "loss rate must be in [0, 1)");
  NP_REQUIRE(params_.mtu > 0, "mtu must be positive");
  channels_.reserve(static_cast<std::size_t>(network_.num_segments()));
  for (const Segment& seg : network_.segments()) {
    channels_.emplace_back(seg.bandwidth_bps, seg.frame_overhead);
  }
  host_base_.reserve(static_cast<std::size_t>(network_.num_clusters()));
  std::size_t base = 0;
  for (const Cluster& c : network_.clusters()) {
    host_base_.push_back(base);
    base += static_cast<std::size_t>(c.size());
  }
  hosts_.resize(base);
  host_touched_.assign(hosts_.size(), false);
  touched_hosts_.reserve(hosts_.size());
  channel_touched_.assign(channels_.size(), false);
  touched_channels_.reserve(channels_.size());
}

std::size_t NetSim::host_slot(ProcessorRef ref) const {
  NP_REQUIRE(ref.cluster >= 0 && ref.cluster < network_.num_clusters(),
             "bad cluster in processor ref");
  const Cluster& c = network_.cluster(ref.cluster);
  NP_REQUIRE(ref.index >= 0 && ref.index < c.size(),
             "bad index in processor ref");
  return host_base_[static_cast<std::size_t>(ref.cluster)] +
         static_cast<std::size_t>(ref.index);
}

Host& NetSim::host(ProcessorRef ref) {
  const std::size_t slot = host_slot(ref);
  if (!host_touched_[slot]) {
    host_touched_[slot] = true;
    touched_hosts_.push_back(slot);
  }
  return hosts_[slot];
}

Channel& NetSim::channel(SegmentId id) {
  NP_REQUIRE(id >= 0 && id < network_.num_segments(),
             "segment id out of range");
  const auto slot = static_cast<std::size_t>(id);
  if (!channel_touched_[slot]) {
    channel_touched_[slot] = true;
    touched_channels_.push_back(slot);
  }
  return channels_[slot];
}

bool NetSim::at_rest() const {
  if (!engine_.idle() || free_transits_.size() != transits_.size() ||
      params_.loss_rate != 0.0 || tracer_) {
    return false;
  }
  // An untouched host or channel is as built: free since time zero, alive
  // or up, at rate 1.
  const SimTime now = engine_.now();
  for (const std::size_t slot : touched_hosts_) {
    const Host& h = hosts_[slot];
    if (!h.alive() || h.slowdown() != 1.0 || h.busy_until() > now) {
      return false;
    }
  }
  for (const std::size_t slot : touched_channels_) {
    const Channel& ch = channels_[slot];
    if (ch.down() || ch.degradation() != 1.0 || ch.busy_until() > now) {
      return false;
    }
  }
  return true;
}

void NetSim::reset(Rng rng) {
  engine_.reset();
  rng_ = rng;
  for (const std::size_t slot : touched_channels_) {
    const Segment& seg = network_.segment(static_cast<SegmentId>(slot));
    channels_[slot] = Channel(seg.bandwidth_bps, seg.frame_overhead);
    channel_touched_[slot] = false;
  }
  touched_channels_.clear();
  for (const std::size_t slot : touched_hosts_) {
    hosts_[slot] = Host{};
    host_touched_[slot] = false;
  }
  touched_hosts_.clear();
  delivered_ = 0;
  retransmissions_ = 0;
  dropped_ = 0;
  if (free_transits_.size() != transits_.size()) {
    // Messages still in flight: drop their callbacks unrun and free every
    // slot.  (After a drained run every slot is free and empty already.)
    free_transits_.clear();
    for (std::size_t slot = transits_.size(); slot-- > 0;) {
      transits_[slot].on_delivered = DeliveryCallback();
      free_transits_.push_back(static_cast<std::uint32_t>(slot));
    }
  }
  tracer_ = nullptr;
}

std::int64_t NetSim::fragments(std::int64_t bytes) const {
  NP_REQUIRE(bytes >= 0, "bytes must be non-negative");
  if (bytes == 0) return 1;
  return (bytes + params_.mtu - 1) / params_.mtu;
}

SimTime NetSim::message_occupancy(const ProcessorType& sender_type,
                                  const Segment& segment,
                                  std::int64_t bytes) const {
  const SimTime wire = SimTime::nanos(
      static_cast<std::int64_t>(8.0 * 1e9 / segment.bandwidth_bps + 0.5));
  return sender_type.comm_per_message +
         segment.frame_overhead * fragments(bytes) +
         (wire + sender_type.comm_per_byte) * bytes;
}

void NetSim::send(ProcessorRef src, ProcessorRef dst, std::int64_t bytes,
                  DeliveryCallback on_delivered) {
  NP_REQUIRE(bytes >= 0, "bytes must be non-negative");
  NP_REQUIRE(static_cast<bool>(on_delivered), "delivery callback required");

  // Sender host pays the asynchronous-send initiation cost.
  Host& sender = host(src);
  if (!sender.alive()) {
    // A crashed sender initiates nothing; the message silently vanishes
    // (datagram semantics -- nobody is told).
    Transit ghost;
    ghost.src = src;
    ghost.dst = dst;
    ghost.bytes = bytes;
    drop(ghost);
    return;
  }
  const SimTime ready =
      sender.reserve(engine_.now(), params_.send_initiation);

  const Cluster& src_cluster = network_.cluster(src.cluster);
  const Cluster& dst_cluster = network_.cluster(dst.cluster);

  // A reused slot keeps its last message's fields: write every one this
  // message reads before run_leg() and attempt() set the attempt state.
  const std::uint32_t slot = open_transit();
  Transit& t = transits_[slot];
  t.num_legs = 0;
  t.next_leg = 0;
  t.src = src;
  t.dst = dst;
  t.bytes = bytes;
  t.frags = fragments(bytes);
  t.coerce_cost = network_.needs_coercion(src.cluster, dst.cluster)
                      ? dst_cluster.type().coerce_per_byte * bytes
                      : SimTime::zero();
  t.on_delivered = std::move(on_delivered);

  // Local (same-host) messages skip the wire entirely.
  if (!(src == dst)) {
    Leg& first = t.legs[t.num_legs++];
    first = Leg{};
    first.channel = &channel(src_cluster.segment());
    first.fixed = src_cluster.type().comm_per_message;
    first.per_byte =
        first.channel->byte_time() + src_cluster.type().comm_per_byte;
    if (src_cluster.segment() != dst_cluster.segment()) {
      const auto link = network_.router_between(src.cluster, dst.cluster);
      NP_ASSERT(link.has_value());
      first.post_delay = link->delay_per_packet * t.frags +
                         link->delay_per_byte * bytes;

      // The router contends as one additional station on the destination
      // segment, pacing at that cluster's interface speed.
      Leg& second = t.legs[t.num_legs++];
      second = Leg{};
      second.channel = &channel(dst_cluster.segment());
      second.fixed = dst_cluster.type().comm_per_message;
      second.per_byte =
          second.channel->byte_time() + dst_cluster.type().comm_per_byte;
    }
  }

  trace(TraceEvent::Kind::SendInitiated, t, ready);
  engine_.schedule_at(ready, [this, slot] { run_leg(slot); });
}

std::uint32_t NetSim::open_transit() {
  if (free_transits_.empty()) {
    if (transits_.size() == transits_.capacity()) {
      // Every slot can be free at once, so the free list grows with the
      // table and returning a slot never allocates.
      const std::size_t capacity =
          std::max<std::size_t>(16, 2 * transits_.capacity());
      transits_.reserve(capacity);
      free_transits_.reserve(capacity);
    }
    free_transits_.push_back(static_cast<std::uint32_t>(transits_.size()));
    transits_.emplace_back();
  }
  const std::uint32_t slot = free_transits_.back();
  free_transits_.pop_back();
  return slot;
}

void NetSim::close_transit(std::uint32_t slot) {
  transits_[slot].on_delivered = DeliveryCallback();
  free_transits_.push_back(slot);
}

void NetSim::trace(TraceEvent::Kind kind, const Transit& t, SimTime at) {
  if (!tracer_) return;
  tracer_(TraceEvent{kind, at, t.src, t.dst, t.bytes});
}

void NetSim::drop(const Transit& t) {
  ++dropped_;
  trace(TraceEvent::Kind::MessageDropped, t, engine_.now());
}

void NetSim::run_leg(std::uint32_t slot) {
  Transit& t = transits_[slot];
  if (t.next_leg >= t.num_legs) {
    finish_delivery(slot);
    return;
  }
  t.frags_left = t.frags;
  t.first = true;
  t.round = 0;
  attempt(slot);
}

void NetSim::attempt(std::uint32_t slot) {
  Transit& t = transits_[slot];
  NP_ASSERT(t.round <= params_.max_retransmit_rounds);
  t.bytes_left =
      t.first ? t.bytes : std::min(t.bytes, t.frags_left * params_.mtu);
  t.lost = 0;
  next_fragment(slot);
}

void NetSim::next_fragment(std::uint32_t slot) {
  Transit& t = transits_[slot];
  const Leg& leg = t.legs[t.next_leg];

  if (t.frags_left == 0) {
    if (t.lost == 0) {
      const SimTime done = engine_.now() + leg.post_delay;
      ++t.next_leg;
      trace(TraceEvent::Kind::LegCompleted, t, done);
      engine_.schedule_at(done, [this, slot] { run_leg(slot); });
      return;
    }
    if (t.round >= params_.max_retransmit_rounds &&
        params_.give_up_after_max_rounds) {
      drop(t);
      close_transit(slot);
      return;
    }
    NP_ASSERT(t.round < params_.max_retransmit_rounds);
    retransmissions_ += static_cast<std::uint64_t>(t.lost);
    // The retransmission attempt resends exactly the lost fragments.
    t.frags_left = t.lost;
    t.first = false;
    ++t.round;
    engine_.schedule_after(params_.rto, [this, slot] { attempt(slot); });
    return;
  }

  const std::int64_t frag_bytes = std::min(t.bytes_left, params_.mtu);
  // The per-message fixed cost rides on the first fragment of the first
  // attempt; retransmitted fragments pay only the (small) resend cost.
  const bool lead = t.first && t.frags_left == t.frags;
  const SimTime occupancy =
      (lead ? leg.fixed
            : (t.first ? SimTime::zero() : params_.send_initiation)) +
      leg.channel->frame_overhead() + leg.per_byte * frag_bytes;
  const ChannelGrant grant = leg.channel->reserve(engine_.now(), occupancy);
  // Draw the Bernoulli loss unconditionally so the loss pattern of the
  // surviving traffic is independent of when channels flap.
  const bool bernoulli_drop = rng_.next_bool(params_.loss_rate);
  const bool dropped = bernoulli_drop || leg.channel->down();
  --t.frags_left;
  t.bytes_left -= frag_bytes;
  if (dropped) {
    ++t.lost;
    trace(TraceEvent::Kind::FragmentLost, t, grant.end);
  }
  engine_.schedule_at(grant.end, [this, slot] { next_fragment(slot); });
}

void NetSim::finish_delivery(std::uint32_t slot) {
  const Transit& t = transits_[slot];
  Host& receiver = host(t.dst);
  if (!receiver.alive()) {
    // The payload reached a dead host: nobody processes it, the delivery
    // callback never fires.  The MMPS timeout path reports the peer.
    drop(t);
    close_transit(slot);
    return;
  }
  const SimTime done = receiver.reserve(
      engine_.now(), params_.recv_processing + t.coerce_cost);
  trace(TraceEvent::Kind::Delivered, t, done);
  engine_.schedule_at(done, [this, slot] { deliver(slot); });
}

void NetSim::deliver(std::uint32_t slot) {
  DeliveryCallback on_delivered = std::move(transits_[slot].on_delivered);
  free_transits_.push_back(slot);
  ++delivered_;
  on_delivered();
}

}  // namespace netpart::sim
