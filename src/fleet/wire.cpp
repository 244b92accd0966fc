#include "fleet/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.hpp"

namespace netpart::fleet {

namespace {

template <typename T>
void put_le(std::vector<std::byte>& out, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

/// An element count read from the frame, checked against the bytes left
/// for elements `width` bytes wide -- before anything is reserved, so a
/// corrupt count fails as InvalidArgument instead of asking the allocator
/// for it.
std::size_t read_count(WireReader& r, std::size_t width) {
  const std::uint64_t n = r.u64();
  NP_REQUIRE(n <= r.remaining() / width,
             "fleet message count exceeds its frame");
  return static_cast<std::size_t>(n);
}

}  // namespace

WireWriter& WireWriter::u8(std::uint8_t v) {
  bytes_.push_back(static_cast<std::byte>(v));
  return *this;
}

WireWriter& WireWriter::u64(std::uint64_t v) {
  put_le(bytes_, v);
  return *this;
}

WireWriter& WireWriter::i32(std::int32_t v) {
  put_le(bytes_, static_cast<std::uint32_t>(v));
  return *this;
}

WireWriter& WireWriter::i64(std::int64_t v) {
  put_le(bytes_, static_cast<std::uint64_t>(v));
  return *this;
}

WireWriter& WireWriter::f64(double v) {
  // Mirror Fnv1a::f64's canonicalisation so value-equal doubles encode
  // identically (-0.0 -> +0.0, every NaN -> one quiet NaN).
  if (v == 0.0) v = 0.0;
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  put_le(bytes_, std::bit_cast<std::uint64_t>(v));
  return *this;
}

WireWriter& WireWriter::str(std::string_view s) {
  u64(s.size());
  for (char c : s) bytes_.push_back(static_cast<std::byte>(c));
  return *this;
}

std::uint8_t WireReader::u8() {
  NP_REQUIRE(pos_ + 1 <= bytes_.size(), "truncated fleet message");
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t WireReader::u32() {
  NP_REQUIRE(pos_ + 4 <= bytes_.size(), "truncated fleet message");
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  NP_REQUIRE(pos_ + 8 <= bytes_.size(), "truncated fleet message");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int32_t WireReader::i32() { return static_cast<std::int32_t>(u32()); }
std::int64_t WireReader::i64() { return static_cast<std::int64_t>(u64()); }
double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint64_t len = u64();
  NP_REQUIRE(len <= remaining(), "truncated fleet message");
  std::string s(len, '\0');
  std::memcpy(s.data(), bytes_.data() + pos_, len);
  pos_ += len;
  return s;
}

// --- message bodies -------------------------------------------------------

std::vector<std::byte> encode_announce(const EpochAnnounce& announce) {
  WireWriter w;
  w.i32(announce.from).u64(announce.epoch);
  return w.take();
}

EpochAnnounce decode_announce(const std::vector<std::byte>& bytes) {
  WireReader r(bytes);
  EpochAnnounce a;
  a.from = r.i32();
  a.epoch = r.u64();
  NP_REQUIRE(r.exhausted(), "trailing bytes in fleet announce");
  return a;
}

namespace {

void encode_request_into(WireWriter& w, const svc::PartitionRequest& req) {
  w.u8(static_cast<std::uint8_t>(req.kind))
      .str(req.spec)
      .i64(req.n)
      .i32(req.iterations)
      .u8(req.options.search == PartitionOptions::Search::Binary ? 0 : 1)
      .u8(req.options.stop_at_partial_cluster ? 1 : 0)
      .u64(req.rate_milli.size());
  for (std::int32_t rate : req.rate_milli) w.i32(rate);
}

svc::PartitionRequest decode_request_from(WireReader& r) {
  svc::PartitionRequest req;
  const std::uint8_t kind = r.u8();
  NP_REQUIRE(kind <= static_cast<std::uint8_t>(
                         svc::PartitionRequest::Kind::Repartition),
             "unknown fleet request kind");
  req.kind = static_cast<svc::PartitionRequest::Kind>(kind);
  req.spec = r.str();
  req.n = r.i64();
  req.iterations = r.i32();
  req.options.search = r.u8() == 0 ? PartitionOptions::Search::Binary
                                   : PartitionOptions::Search::Linear;
  req.options.stop_at_partial_cluster = r.u8() != 0;
  const std::size_t rates = read_count(r, sizeof(std::int32_t));
  req.rate_milli.reserve(rates);
  for (std::size_t i = 0; i < rates; ++i) req.rate_milli.push_back(r.i32());
  return req;
}

}  // namespace

void encode_trace_context_into(WireWriter& w, const obs::TraceContext& ctx) {
  if (!ctx.valid()) {
    w.u64(0);
    return;
  }
  w.u64(24)  // three u64 ids follow
      .u64(ctx.trace_id)
      .u64(ctx.span_id)
      .u64(ctx.parent_span_id);
}

obs::TraceContext decode_trace_context_from(WireReader& r) {
  const std::uint64_t len = r.u64();
  if (len == 0) return obs::TraceContext{};
  NP_REQUIRE(len == 24, "malformed trace context length");
  obs::TraceContext ctx;
  ctx.trace_id = r.u64();
  ctx.span_id = r.u64();
  ctx.parent_span_id = r.u64();
  return ctx;
}

std::vector<std::byte> encode_forward(const ForwardEnvelope& envelope) {
  WireWriter w;
  w.i32(envelope.from).u64(envelope.routing_key).i32(envelope.reply_tag);
  encode_trace_context_into(w, envelope.trace);
  encode_request_into(w, envelope.request);
  return w.take();
}

ForwardHeader decode_forward_header_from(WireReader& r) {
  ForwardHeader h;
  h.from = r.i32();
  h.routing_key = r.u64();
  h.reply_tag = r.i32();
  return h;
}

ForwardEnvelope decode_forward(const std::vector<std::byte>& bytes) {
  WireReader r(bytes);
  ForwardEnvelope e;
  const ForwardHeader h = decode_forward_header_from(r);
  e.from = h.from;
  e.routing_key = h.routing_key;
  e.reply_tag = h.reply_tag;
  e.trace = decode_trace_context_from(r);
  e.request = decode_request_from(r);
  NP_REQUIRE(r.exhausted(), "trailing bytes in fleet forward");
  return e;
}

std::vector<std::byte> encode_replicate(const ReplicateEnvelope& envelope) {
  NP_REQUIRE(envelope.decision != nullptr,
             "a replicate push carries a decision");
  WireWriter w;
  encode_trace_context_into(w, envelope.trace);
  encode_decision_into(w, *envelope.decision);
  return w.take();
}

ReplicateEnvelope decode_replicate(const std::vector<std::byte>& bytes) {
  WireReader r(bytes);
  ReplicateEnvelope e;
  e.trace = decode_trace_context_from(r);
  e.decision =
      std::make_shared<svc::PartitionDecision>(decode_decision_from(r));
  NP_REQUIRE(r.exhausted(), "trailing bytes in fleet replicate");
  return e;
}

std::vector<std::byte> encode_forward_reply(const ForwardReply& reply) {
  WireWriter w;
  if (!reply.ok) {
    w.u8(0).u8(0);
    return w.take();
  }
  NP_REQUIRE(reply.decision != nullptr,
             "a successful forward reply carries a decision");
  w.u8(1).u8(reply.hit ? 1 : 0).f64(reply.received_us).f64(reply.ready_us);
  encode_decision_into(w, *reply.decision);
  return w.take();
}

ForwardReply decode_forward_reply(const std::vector<std::byte>& bytes) {
  WireReader r(bytes);
  ForwardReply reply;
  reply.ok = r.u8() != 0;
  reply.hit = r.u8() != 0;
  if (reply.ok) {
    reply.received_us = r.f64();
    reply.ready_us = r.f64();
    reply.decision =
        std::make_shared<svc::PartitionDecision>(decode_decision_from(r));
  }
  NP_REQUIRE(r.exhausted(), "trailing bytes in fleet forward reply");
  return reply;
}

void encode_decision_into(WireWriter& w, const svc::PartitionDecision& d) {
  w.u64(d.key).u64(d.epoch).f64(d.t_c_ms).u64(d.evaluations);
  const std::vector<std::int64_t>& per_rank = d.partition.values();
  w.u64(per_rank.size());
  for (std::int64_t a : per_rank) w.i64(a);
  w.u64(d.config.size());
  for (int p : d.config) w.i32(p);
  w.u64(d.placement.size());
  for (const ProcessorRef& ref : d.placement) {
    w.i32(ref.cluster).i32(ref.index);
  }
}

svc::PartitionDecision decode_decision_from(WireReader& r) {
  svc::PartitionDecision d;
  d.key = r.u64();
  d.epoch = r.u64();
  d.t_c_ms = r.f64();
  d.evaluations = r.u64();
  const std::size_t ranks = read_count(r, sizeof(std::int64_t));
  std::vector<std::int64_t> per_rank;
  per_rank.reserve(ranks);
  for (std::size_t i = 0; i < ranks; ++i) per_rank.push_back(r.i64());
  d.partition = PartitionVector(std::move(per_rank));
  const std::size_t clusters = read_count(r, sizeof(std::int32_t));
  d.config.reserve(clusters);
  for (std::size_t i = 0; i < clusters; ++i) d.config.push_back(r.i32());
  const std::size_t placed = read_count(r, 2 * sizeof(std::int32_t));
  d.placement.reserve(placed);
  for (std::size_t i = 0; i < placed; ++i) {
    ProcessorRef ref;
    ref.cluster = r.i32();
    ref.index = r.i32();
    d.placement.push_back(ref);
  }
  return d;
}

}  // namespace netpart::fleet
