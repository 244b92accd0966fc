// Wire format of the fleet control plane (see DESIGN.md §12).
//
// Fleet messages ride MMPS payloads, so -- like every payload in this
// system -- they are explicit little-endian byte sequences with
// length-prefixed variable fields, not memcpy'd structs: the bytes a node
// emits must decode identically on any peer regardless of host endianness
// or width, and the *size* of the encoding is what the simulator charges
// the channel for, so encoded size is part of the modelled cost.
//
// Four messages:
//   Heartbeat   {from, epoch}               -- liveness + piggybacked epoch
//   Gossip      {from, epoch}               -- ring-wise epoch propagation
//   Forward     {key, reply_tag, ctx, req}  -- a request relayed to its owner
//   Replicate   {ctx, decision}             -- a hot decision pushed to
//                                              replicas
//
// A forward's reply is a status byte, then on success a hit byte, the
// owner's receive and ready stamps, and the decision in the Replicate
// encoding.  Decisions travel with partition/config/placement so a
// replica's copy is served verbatim after a failover, not recomputed.
//
// Trace context (DESIGN.md §13) rides Forward and Replicate as a
// length-prefixed field: u64 length (0 = no context, 24 = present)
// followed by trace_id/span_id/parent_span_id as little-endian u64s.  Any
// other length is a peer bug and decoding throws InvalidArgument.  The
// 8-or-32 extra bytes are part of the encoded payload, so the simulator
// charges the channel for them like any other header -- tracing has a
// modelled wire cost, not a free side channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "fleet/hash_ring.hpp"
#include "obs/trace_context.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"

namespace netpart::fleet {

/// Little-endian byte writer mirroring util/hash's serialisation rules
/// (fixed widths, length-prefixed strings/vectors).
class WireWriter {
 public:
  WireWriter& u8(std::uint8_t v);
  WireWriter& u64(std::uint64_t v);
  WireWriter& i32(std::int32_t v);
  WireWriter& i64(std::int64_t v);
  WireWriter& f64(double v);
  WireWriter& str(std::string_view s);

  std::vector<std::byte> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::byte> bytes_;
};

/// Bounds-checked reader; throws InvalidArgument on truncated payloads
/// (a malformed fleet message is a peer bug, not a crash).
class WireReader {
 public:
  explicit WireReader(const std::vector<std::byte>& bytes)
      : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::string str();

  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<std::byte>& bytes_;
  std::size_t pos_ = 0;
};

// --- message bodies -------------------------------------------------------

/// Heartbeat and gossip share one body: the sender and the newest
/// availability epoch it has observed.
struct EpochAnnounce {
  NodeId from = -1;
  std::uint64_t epoch = 0;
};

std::vector<std::byte> encode_announce(const EpochAnnounce& announce);
EpochAnnounce decode_announce(const std::vector<std::byte>& bytes);

/// Length-prefixed trace-context field (0 = absent, 24 = three u64 ids).
/// Decoding throws InvalidArgument on any other length prefix.
void encode_trace_context_into(WireWriter& w, const obs::TraceContext& ctx);
obs::TraceContext decode_trace_context_from(WireReader& r);

/// A request relayed from the node a client happened to contact to the
/// key's owner.  `reply_tag` is the per-forward MMPS tag the relay waits
/// on; `routing_key` pins both sides to the same ring decision.  `trace`
/// carries the relay-side forward span's context so the owner's serve
/// span joins the same trace as a true child.
struct ForwardEnvelope {
  NodeId from = -1;
  std::uint64_t routing_key = 0;
  std::int32_t reply_tag = 0;
  obs::TraceContext trace;
  svc::PartitionRequest request;
};

std::vector<std::byte> encode_forward(const ForwardEnvelope& envelope);
ForwardEnvelope decode_forward(const std::vector<std::byte>& bytes);

/// A forward frame's fixed header: the relay, the routing key and the tag
/// the relay waits on.  Read alone, it lets the owner answer a frame whose
/// body does not decode.
struct ForwardHeader {
  NodeId from = -1;
  std::uint64_t routing_key = 0;
  std::int32_t reply_tag = 0;
};

ForwardHeader decode_forward_header_from(WireReader& r);

/// A hot decision pushed to a replica, parented under the owner's serve
/// span via `trace`.  The decision is shared, not copied: the owner pushes
/// its cached entry, and a replica inserts the decoded one.
struct ReplicateEnvelope {
  obs::TraceContext trace;
  std::shared_ptr<const svc::PartitionDecision> decision;
};

std::vector<std::byte> encode_replicate(const ReplicateEnvelope& envelope);
ReplicateEnvelope decode_replicate(const std::vector<std::byte>& bytes);

/// The owner's answer to a forward.  A failure carries nothing else; a
/// success carries whether the owner's cache hit, its receive and ready
/// stamps (sim-clock us, globally consistent) and the decision (non-null).
struct ForwardReply {
  bool ok = false;
  bool hit = false;
  double received_us = 0.0;
  double ready_us = 0.0;
  std::shared_ptr<const svc::PartitionDecision> decision;
};

std::vector<std::byte> encode_forward_reply(const ForwardReply& reply);
ForwardReply decode_forward_reply(const std::vector<std::byte>& bytes);

/// A full decision (replication push, or the payload of a forward reply).
void encode_decision_into(WireWriter& w, const svc::PartitionDecision& d);
svc::PartitionDecision decode_decision_from(WireReader& r);

}  // namespace netpart::fleet
