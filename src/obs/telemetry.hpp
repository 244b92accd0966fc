// Process-wide telemetry registry (see DESIGN.md §9).
//
// One TelemetryRegistry holds everything a run observes: named counters,
// latency histograms, and the structured span/instant event buffer that the
// Chrome-trace exporter renders.  The PartitionService keeps a private
// instance (its counters are per-service state the tests assert on); the
// library instrumentation in core/, exec/, svc/, and mmps/ writes to
// TelemetryRegistry::global() so one `netpartd --trace-out` file shows the
// partitioner search, the service request lifecycle, and the adaptive
// executor's repartitions on a single timeline.
//
// Cost discipline: counters are a relaxed atomic add; spans are recorded
// only while `enabled()` -- the disabled path is one relaxed load and no
// allocation, so always-on instrumentation in hot paths stays free.  The
// event buffer is capacity-bounded: once full, new records are dropped and
// counted (`dropped_records()`), never grown without bound.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace netpart::obs {

/// Attribute list attached to spans and instants ("args" in Chrome trace).
using AttrList = std::vector<std::pair<std::string, JsonValue>>;

/// A completed span.  `sim_clock` separates the two timelines: wall spans
/// are stamped in microseconds since the registry was constructed, sim
/// spans in simulated microseconds -- the exporter renders them as two
/// processes so Perfetto never interleaves the clocks.
struct SpanRecord {
  std::string name;
  std::string category;
  bool sim_clock = false;
  std::uint32_t tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  /// Trace identity (DESIGN.md §13).  0 = untraced (pre-PR 8 producers or
  /// spans recorded while id generation is unseeded-default).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  AttrList attrs;
};

/// A point event (fault onsets, sheds, drops).
struct InstantRecord {
  std::string name;
  std::string category;
  bool sim_clock = false;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  AttrList attrs;
};

class TelemetryRegistry {
 public:
  /// A locally constructed registry starts with span recording enabled;
  /// the process-wide global() starts disabled (pay for tracing only when
  /// a front-end like `netpartd --trace-out` opts in).
  explicit TelemetryRegistry(bool enabled = true);

  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// The process-wide registry the library instrumentation targets.
  static TelemetryRegistry& global();

  /// Whether global() is currently recording spans, as one relaxed atomic
  /// load -- no initialisation guard, no registry lookup.  Hot paths (the
  /// estimator's per-evaluation check) branch on this and skip all
  /// telemetry work, including counter lookups, when tracing is off.
  static bool global_enabled() {
    return detail_global_enabled.load(std::memory_order_relaxed);
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled);

  // --- trace identity --------------------------------------------------
  /// Re-seed this registry's span-id source (stream separates fleet nodes
  /// sharing one seed).  Call before recording; ids already handed out
  /// keep their values.
  void set_trace_seed(std::uint64_t seed, std::uint64_t stream = 0);
  /// Next deterministic 64-bit id (never 0).
  std::uint64_t next_trace_id() { return trace_ids_.next(); }

  // --- metrics --------------------------------------------------------
  /// Find-or-create.  References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  LatencyHistogram& latency(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// {"counters": {name: value...},
  ///  "latencies": {name: {count, mean_us, min_us, max_us, p50_us...}}}
  JsonValue to_json() const;

  /// Long-form rows: kind,name,field,value (one row per exported number).
  void write_csv(std::ostream& os) const;

  /// Full metrics dump, one per line, name-ordered.  Counters render as
  /// "counter <name> <value>"; histograms add count/mean/min/max and the
  /// quantile estimates.  Deterministic for deterministic inputs.  A
  /// non-empty `dimension` adds a `{<dimension>}` label suffix after each
  /// name, e.g. `counter fleet.node.requests{node=2} 57`: the fleet merger
  /// uses it to keep per-node lanes distinct in one combined dump (tier-1
  /// tooling greps the plain rows).
  std::string metrics_text(std::string_view dimension = {}) const;

  // --- structured events ----------------------------------------------
  void record_span(SpanRecord record);
  void record_instant(InstantRecord record);

  /// Copies (the live buffers stay locked only for the copy).
  std::vector<SpanRecord> spans() const;
  std::vector<InstantRecord> instants() const;
  std::size_t span_count() const;

  /// Records rejected because the event buffer was full.
  std::uint64_t dropped_records() const;
  /// Combined span+instant capacity; lowering it below the current size
  /// does not evict already-recorded events.
  void set_record_capacity(std::size_t capacity);

  void clear_events();

  /// Microseconds since this registry was constructed (the wall-span
  /// timebase; small offsets keep Chrome-trace timestamps readable).
  double wall_now_us() const;

 private:
  /// Mirror of global()'s enabled_ flag.  Constant-initialised, so it is
  /// readable without (and before) constructing the global registry.
  static inline std::atomic<bool> detail_global_enabled{false};

  std::atomic<bool> enabled_;
  TraceIdGenerator trace_ids_;

  mutable std::mutex metrics_mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latencies_;

  mutable std::mutex events_mutex_;
  std::deque<SpanRecord> spans_;
  std::deque<InstantRecord> instants_;
  std::size_t record_capacity_;
  std::uint64_t dropped_ = 0;

  std::chrono::steady_clock::time_point wall_origin_;
};

/// A registry and the `{dimension}` label its rows carry in a merged
/// dump; an empty dimension renders plain rows.
struct LabelledRegistry {
  const TelemetryRegistry* registry = nullptr;
  std::string dimension;
};

/// One metrics dump over several registries (a fleet's nodes, a daemon's
/// global and service registries): every row carries its registry's label,
/// and all rows sort together, so one metric's rows group regardless of
/// which registry produced them.  Deterministic for deterministic inputs.
std::string merged_metrics_text(const std::vector<LabelledRegistry>& sources);

}  // namespace netpart::obs
