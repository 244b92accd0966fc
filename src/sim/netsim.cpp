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

Host& NetSim::host(ProcessorRef ref) { return hosts_[host_slot(ref)]; }

Channel& NetSim::channel(SegmentId id) {
  NP_REQUIRE(id >= 0 && id < network_.num_segments(),
             "segment id out of range");
  return channels_[static_cast<std::size_t>(id)];
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
  NP_REQUIRE(on_delivered != nullptr, "delivery callback required");

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

  auto transit = std::make_shared<Transit>();
  transit->src = src;
  transit->dst = dst;
  transit->bytes = bytes;
  transit->on_delivered = std::move(on_delivered);
  if (network_.needs_coercion(src.cluster, dst.cluster)) {
    transit->coerce_cost = dst_cluster.type().coerce_per_byte * bytes;
  }

  // Local (same-host) messages skip the wire entirely.
  if (!(src == dst)) {
    Leg first;
    first.channel = &channel(src_cluster.segment());
    first.fixed = src_cluster.type().comm_per_message;
    first.per_byte =
        first.channel->byte_time() + src_cluster.type().comm_per_byte;
    if (src_cluster.segment() != dst_cluster.segment()) {
      const auto link = network_.router_between(src.cluster, dst.cluster);
      NP_ASSERT(link.has_value());
      first.post_delay = link->delay_per_packet * fragments(bytes) +
                         link->delay_per_byte * bytes;
      transit->legs.push_back(first);

      // The router contends as one additional station on the destination
      // segment, pacing at that cluster's interface speed.
      Leg second;
      second.channel = &channel(dst_cluster.segment());
      second.fixed = dst_cluster.type().comm_per_message;
      second.per_byte =
          second.channel->byte_time() + dst_cluster.type().comm_per_byte;
      transit->legs.push_back(second);
    } else {
      transit->legs.push_back(first);
    }
  }

  trace(TraceEvent::Kind::SendInitiated, *transit, ready);
  engine_.schedule_at(ready,
                      [this, transit]() mutable { run_leg(transit); });
}

void NetSim::trace(TraceEvent::Kind kind, const Transit& t, SimTime at) {
  if (!tracer_) return;
  tracer_(TraceEvent{kind, at, t.src, t.dst, t.bytes});
}

void NetSim::drop(const Transit& t) {
  ++dropped_;
  trace(TraceEvent::Kind::MessageDropped, t, engine_.now());
}

void NetSim::run_leg(std::shared_ptr<Transit> t) {
  if (t->next_leg >= t->legs.size()) {
    finish_delivery(t);
    return;
  }
  const std::int64_t frags = fragments(t->bytes);
  attempt(std::move(t), frags, /*first=*/true, /*round=*/0);
}

void NetSim::attempt(std::shared_ptr<Transit> t, std::int64_t frags,
                     bool first, int round) {
  NP_ASSERT(round <= params_.max_retransmit_rounds);
  const std::int64_t attempt_bytes =
      first ? t->bytes : std::min(t->bytes, frags * params_.mtu);
  next_fragment(std::move(t), frags, attempt_bytes, /*lost=*/0, first,
                round);
}

void NetSim::next_fragment(std::shared_ptr<Transit> t,
                           std::int64_t frags_left, std::int64_t bytes_left,
                           std::int64_t lost, bool first, int round) {
  const Leg& leg = t->legs[t->next_leg];

  if (frags_left == 0) {
    if (lost == 0) {
      const SimTime done = engine_.now() + leg.post_delay;
      trace(TraceEvent::Kind::LegCompleted, *t, done);
      engine_.schedule_at(done, [this, t = std::move(t)]() mutable {
        ++t->next_leg;
        run_leg(std::move(t));
      });
      return;
    }
    if (round >= params_.max_retransmit_rounds &&
        params_.give_up_after_max_rounds) {
      drop(*t);
      return;
    }
    NP_ASSERT(round < params_.max_retransmit_rounds);
    retransmissions_ += static_cast<std::uint64_t>(lost);
    engine_.schedule_after(params_.rto, [this, t = std::move(t), lost,
                                         round] {
      attempt(t, lost, /*first=*/false, round + 1);
    });
    return;
  }

  const std::int64_t frag_bytes = std::min(bytes_left, params_.mtu);
  // The per-message fixed cost rides on the first fragment of the first
  // attempt; retransmitted fragments pay only the (small) resend cost.
  const bool lead = first && frags_left == fragments(t->bytes);
  const SimTime occupancy =
      (lead ? leg.fixed : (first ? SimTime::zero() : params_.send_initiation)) +
      leg.channel->frame_overhead() + leg.per_byte * frag_bytes;
  const ChannelGrant grant = leg.channel->reserve(engine_.now(), occupancy);
  // Draw the Bernoulli loss unconditionally so the loss pattern of the
  // surviving traffic is independent of when channels flap.
  const bool bernoulli_drop = rng_.next_bool(params_.loss_rate);
  const bool dropped = bernoulli_drop || leg.channel->down();
  if (dropped) {
    trace(TraceEvent::Kind::FragmentLost, *t, grant.end);
  }
  engine_.schedule_at(
      grant.end, [this, t = std::move(t), frags_left, bytes_left, frag_bytes,
                  lost, dropped, first, round]() mutable {
        next_fragment(std::move(t), frags_left - 1, bytes_left - frag_bytes,
                      lost + (dropped ? 1 : 0), first, round);
      });
}

void NetSim::finish_delivery(const std::shared_ptr<Transit>& t) {
  Host& receiver = host(t->dst);
  if (!receiver.alive()) {
    // The payload reached a dead host: nobody processes it, the delivery
    // callback never fires.  The MMPS timeout path reports the peer.
    drop(*t);
    return;
  }
  const SimTime done = receiver.reserve(
      engine_.now(), params_.recv_processing + t->coerce_cost);
  trace(TraceEvent::Kind::Delivered, *t, done);
  engine_.schedule_at(done, [this, t] {
    ++delivered_;
    t->on_delivered();
  });
}

}  // namespace netpart::sim
