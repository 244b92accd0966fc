// sim::TraceLog -> telemetry bridge.
//
// The simulator's message-lifecycle tracer and the span timeline were two
// disconnected views of the same run.  This bridge folds a collected
// TraceLog into a TelemetryRegistry: each SendInitiated/Delivered pair
// becomes a sim-clock "msg" span (one lane per sender, so concurrent
// messages stack in the viewer), every other event -- fragment losses,
// drops, host/channel faults, availability churn -- becomes an instant
// event, and the aggregate counts (delivered, lost, dropped trace events)
// land in the registry's counters.  After bridging, `netpartd --trace-out`
// shows message traffic and fault onsets on the same Perfetto timeline as
// the partitioner and service spans.
// Silent-loss surfacing: a TraceLog's ring-buffer truncation count lands
// in the registry as `obs.trace.dropped` beside the traffic counters, so a
// bridged export carries the loss total (the fleet's exporter folds
// NetSim::messages_dropped() in the same way, as `sim.messages_dropped`).
#pragma once

#include "obs/telemetry.hpp"
#include "sim/trace.hpp"
#include "util/time.hpp"

namespace netpart::obs {

/// Fold `log` into `registry`.  `origin` shifts the log's local sim clock
/// onto the pipeline clock (the adaptive executor restarts each chunk's
/// simulator at time zero).  Ignores the registry's enabled() gate: the
/// caller holding a TraceLog has already opted into tracing.
void bridge_trace_log(const sim::TraceLog& log, TelemetryRegistry& registry,
                      SimTime origin = SimTime::zero());

}  // namespace netpart::obs
