#include "obs/sim_bridge.hpp"

#include <deque>
#include <map>
#include <string>
#include <utility>

namespace netpart::obs {

namespace {

std::string ref_string(const ProcessorRef& ref) {
  // Built with += rather than one operator+ chain: gcc 12's -Wrestrict
  // fires a false positive on the chained temporaries under -O2.
  std::string out = "(";
  out += std::to_string(ref.cluster);
  out += ',';
  out += std::to_string(ref.index);
  out += ')';
  return out;
}

}  // namespace

void bridge_trace_log(const sim::TraceLog& log, TelemetryRegistry& registry,
                      SimTime origin) {
  using Kind = sim::TraceEvent::Kind;

  // One viewer lane per sending processor, numbered in first-seen order so
  // the export is deterministic for a deterministic log.
  std::map<std::pair<int, int>, std::uint32_t> lanes;
  const auto lane = [&lanes](const ProcessorRef& ref) {
    const auto [it, inserted] = lanes.try_emplace(
        {ref.cluster, ref.index},
        static_cast<std::uint32_t>(lanes.size()));
    (void)inserted;
    return it->second;
  };

  // FIFO-match sends to deliveries per (src, dst) pair, like
  // TraceLog::mean_latency (the simulator's channels are FIFO per pair).
  using Pair = std::pair<std::pair<int, int>, std::pair<int, int>>;
  struct Open {
    SimTime at;
    std::int64_t bytes;
  };
  std::map<Pair, std::deque<Open>> open;

  std::uint64_t delivered = 0;
  std::int64_t bytes_delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t dropped = 0;

  for (const sim::TraceEvent& e : log.events()) {
    const double ts_us = (origin + e.at).as_micros();
    const Pair key{{e.src.cluster, e.src.index},
                   {e.dst.cluster, e.dst.index}};
    switch (e.kind) {
      case Kind::SendInitiated:
        open[key].push_back({origin + e.at, e.bytes});
        continue;
      case Kind::Delivered: {
        ++delivered;
        bytes_delivered += e.bytes;
        auto& queue = open[key];
        if (queue.empty()) continue;  // send predates the log (ring drop)
        SpanRecord span;
        span.name = "msg";
        span.category = "sim.msg";
        span.sim_clock = true;
        span.tid = lane(e.src);
        span.start_us = queue.front().at.as_micros();
        span.dur_us = ts_us - span.start_us;
        span.attrs.emplace_back("src", ref_string(e.src));
        span.attrs.emplace_back("dst", ref_string(e.dst));
        span.attrs.emplace_back("bytes", JsonValue(e.bytes));
        queue.pop_front();
        registry.record_span(std::move(span));
        continue;
      }
      case Kind::FragmentLost:
        ++lost;
        break;
      case Kind::MessageDropped:
        ++dropped;
        break;
      default:
        break;
    }
    // Everything that was not a send/delivery becomes an instant: losses,
    // drops, and every fault/churn event from sim/faults.hpp.
    InstantRecord instant;
    instant.name = sim::TraceEvent::kind_name(e.kind);
    instant.category = "sim.event";
    instant.sim_clock = true;
    instant.tid = lane(e.src);
    instant.ts_us = ts_us;
    instant.attrs.emplace_back("src", ref_string(e.src));
    if (e.dst.cluster >= 0) {
      instant.attrs.emplace_back("dst", ref_string(e.dst));
    }
    if (e.bytes != 0) instant.attrs.emplace_back("bytes", JsonValue(e.bytes));
    if (e.segment >= 0) {
      instant.attrs.emplace_back("segment",
                                 JsonValue(static_cast<int>(e.segment)));
    }
    if (e.factor != 0.0) instant.attrs.emplace_back("factor", e.factor);
    registry.record_instant(std::move(instant));
  }

  registry.counter("sim.messages_delivered").add(delivered);
  registry.counter("sim.bytes_delivered")
      .add(static_cast<std::uint64_t>(bytes_delivered));
  registry.counter("sim.fragments_lost").add(lost);
  registry.counter("sim.messages_dropped").add(dropped);
  registry.counter("sim.trace_dropped_events").add(log.dropped_events());
  registry.counter("obs.trace.dropped").add(log.dropped_events());
}

}  // namespace netpart::obs
