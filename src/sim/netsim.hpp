// Message-level network simulator.
//
// NetSim realises the delivery path of one message on the modelled network:
//
//   sender host (initiation) -> source segment channel -> [router ->
//   destination segment channel] -> receiver host (+ coercion) -> delivery
//
// The channel occupancy of a message sent by a processor of type T is
//
//   T.comm_per_message + nfrags * frame_overhead + bytes * (wire + T.comm_per_byte)
//
// i.e. the host paces the wire (1994 UDP stacks were host-limited), which is
// what makes communication "faster on a cluster of Sun4's than Sun3's" and
// gives the per-cluster cost functions of Eq. 1.  A router hop adds the
// paper's per-byte internal delay and makes the router contend as one
// additional station on each segment it touches.
//
// Datagram loss is Bernoulli per fragment; lost fragments are retransmitted
// after an RTO, which is how the MMPS layer above provides reliability.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace netpart::sim {

struct NetSimParams {
  /// Probability that a fragment is lost on a channel hop.
  double loss_rate = 0.0;
  /// Retransmission timeout applied by the reliable layer.
  SimTime rto = SimTime::millis(50);
  /// Datagram payload limit (ethernet MTU minus UDP/IP headers).
  std::int64_t mtu = 1472;
  /// Host cost to initiate an asynchronous send (system call).
  SimTime send_initiation = SimTime::micros(30);
  /// Host cost to accept a delivered message.
  SimTime recv_processing = SimTime::micros(50);
  /// Cap on retransmission rounds before the simulator reports a bug (the
  /// reliable layer never gives up; this guards against loss_rate ~ 1).
  int max_retransmit_rounds = 64;
  /// When true, a message that exhausts max_retransmit_rounds is dropped
  /// (traced as MessageDropped) instead of tripping an assertion.  Enable
  /// under fault injection, where a long channel partition legitimately
  /// defeats the retransmission layer.
  bool give_up_after_max_rounds = false;
};

/// Delivery notification: fires when the receiving host has fully processed
/// the message (after coercion, if any).
using DeliveryCallback = Action;

class NetSim {
 public:
  NetSim(Engine& engine, const Network& network, NetSimParams params,
         Rng rng);

  NetSim(const NetSim&) = delete;
  NetSim& operator=(const NetSim&) = delete;

  /// Initiate a message from `src` to `dst` at engine.now().  The sender
  /// host is reserved for the initiation cost; the callback fires at the
  /// delivery-complete time.  Messages between a pair of hosts are
  /// delivered in initiation order (FIFO channels).
  void send(ProcessorRef src, ProcessorRef dst, std::int64_t bytes,
            DeliveryCallback on_delivered);

  Host& host(ProcessorRef ref);
  Channel& channel(SegmentId id);

  const Network& network() const { return network_; }
  Engine& engine() { return engine_; }
  const NetSimParams& params() const { return params_; }

  /// Channel occupancy of a `bytes`-byte message paced by a host of the
  /// given type (exposed for tests and the analytical cost model).
  SimTime message_occupancy(const ProcessorType& sender_type,
                            const Segment& segment,
                            std::int64_t bytes) const;

  std::int64_t fragments(std::int64_t bytes) const;

  /// Number of messages fully delivered so far.
  std::uint64_t messages_delivered() const { return delivered_; }
  /// Number of fragment retransmissions performed so far.
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Number of messages abandoned (dead host, retransmit cap).
  std::uint64_t messages_dropped() const { return dropped_; }

  /// True when traffic sent from now on replays, shifted in time, what the
  /// same traffic sent at any other at-rest moment does: the engine is
  /// idle and no message is in flight; loss_rate == 0, so the random
  /// stream is never drawn; no tracer is installed; every host is alive at
  /// slowdown 1 and every channel up at degradation 1; and each is free by
  /// engine().now().  Sim time is integer ns and hosts and channels are
  /// busy-until resources, so every reservation then starts where it would
  /// on a fresh simulator, offset by now().  run_comm_cycles relies on
  /// this to stop simulating identical cycles.
  bool at_rest() const;

  /// Restore exactly the state of a freshly built simulator on `rng`.  The
  /// engine is reset too (a pending event belongs to one of this
  /// simulator's messages, and is dropped unrun); hosts and channels are
  /// free, alive and at rate 1 again; the counters are zero; and no tracer
  /// is installed.  The slot tables keep their slots, all free, so
  /// traffic that fits the tables' peak so far runs after a reset without
  /// allocating.  A reset costs the hosts and channels handed out since
  /// the last one and, if the engine was not drained, the messages in
  /// flight: not the size of the network.
  void reset(Rng rng);

  /// Install a message-lifecycle observer (see sim/trace.hpp); pass
  /// nullptr to disable.  The tracer must outlive the simulator.
  void set_tracer(Tracer tracer) { tracer_ = std::move(tracer); }

  /// Emit an event through the installed tracer (no-op without one).  The
  /// fault injector uses this to put fault transitions on the same stream
  /// as the message lifecycle.
  void emit(const TraceEvent& event) {
    if (tracer_) tracer_(event);
  }

 private:
  /// One channel hop of a message's path.
  struct Leg {
    Channel* channel = nullptr;
    SimTime fixed;       ///< per-message occupancy (first attempt only)
    SimTime per_byte;    ///< wire + sender-side pacing
    SimTime post_delay;  ///< router internal delay after this leg
  };

  /// One in-flight message, in a reused slot of transits_.  A message has
  /// exactly one pending engine event at a time, so that event captures
  /// only (this, slot) -- inline in an Action, no allocation -- and the
  /// state of the current transmission attempt lives here.
  struct Transit {
    std::array<Leg, 2> legs;  ///< source segment [, destination segment]
    std::size_t num_legs = 0;
    std::size_t next_leg = 0;
    ProcessorRef src;
    ProcessorRef dst;
    std::int64_t bytes = 0;
    std::int64_t frags = 0;  ///< fragments(bytes)
    SimTime coerce_cost;
    DeliveryCallback on_delivered;
    // The current attempt on legs[next_leg].
    std::int64_t frags_left = 0;  ///< fragments not yet transmitted
    std::int64_t bytes_left = 0;  ///< payload bytes not yet transmitted
    std::int64_t lost = 0;        ///< fragments lost so far
    bool first = true;            ///< first attempt on this leg
    int round = 0;                ///< retransmission round
  };

  /// Take a free slot (or grow the table) for a new message; send()
  /// rewrites the fields the message reads.
  std::uint32_t open_transit();
  /// Return a finished or abandoned message's slot.
  void close_transit(std::uint32_t slot);

  /// Start (or continue to) the leg at next_leg; called at the time the
  /// message is ready to enter that channel.
  void run_leg(std::uint32_t slot);

  /// One transmission attempt of frags_left fragments on the current leg.
  /// Fragments reserve the channel one at a time, so concurrent messages
  /// interleave at datagram granularity -- the packet-level fairness of a
  /// shared ethernet.  Fragments lost in this attempt are retransmitted in
  /// a follow-up attempt after the RTO.
  void attempt(std::uint32_t slot);

  /// Transmit the next fragment of the current attempt.
  void next_fragment(std::uint32_t slot);

  /// All legs done: receiver host processing, then deliver().
  void finish_delivery(std::uint32_t slot);

  /// Free the slot, then run the delivery callback (which may send).
  void deliver(std::uint32_t slot);

  std::size_t host_slot(ProcessorRef ref) const;

  Engine& engine_;
  const Network& network_;
  NetSimParams params_;
  Rng rng_;
  std::vector<Channel> channels_;        // by SegmentId
  std::vector<Host> hosts_;              // dense, cluster-major
  std::vector<std::size_t> host_base_;   // cluster -> first host slot
  // The hosts and channels host() and channel() have handed out since
  // construction or the last reset, each listed once.  Every reservation
  // and fault reaches a host or channel through them, so the others are
  // still as built, and at_rest() and reset() visit only these: a sample
  // on one cluster of a large network costs that cluster alone.  The
  // lists are reserved at their full size and never allocate.
  std::vector<bool> host_touched_;
  std::vector<std::size_t> touched_hosts_;
  std::vector<bool> channel_touched_;
  std::vector<std::size_t> touched_channels_;
  std::uint64_t delivered_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Transit> transits_;            ///< by slot
  std::vector<std::uint32_t> free_transits_;
  Tracer tracer_;

  void trace(TraceEvent::Kind kind, const Transit& t, SimTime at);
  void drop(const Transit& t);
};

}  // namespace netpart::sim
