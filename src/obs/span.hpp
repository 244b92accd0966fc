// RAII spans over the telemetry registry (see DESIGN.md §9).
//
// A Span brackets one unit of work and records a SpanRecord when it ends.
// Two clocks:
//
//   * wall clock -- the default; start/end are taken from the registry's
//     steady-clock timebase.  Used by real concurrent code (the service,
//     the partitioner running on worker threads).
//   * explicit sim clock -- the overload taking a SimTime start; the
//     simulator stamps both ends itself via end_at(), because simulated
//     work does not advance the wall clock.  Used by the adaptive executor
//     and the sim TraceLog bridge.
//
// Spans form a per-thread stack (strict LIFO: construct them as locals):
// each enabled span is the current trace context until it ends, so a
// nested span parents itself under the enclosing one.  Chrome trace
// viewers nest complete events by timestamp containment.
//
// Disabled path: when the registry's span recording is off at construction
// time, the Span holds a null registry and every member is a single branch
// -- no strings are built, no attribute storage is allocated, no trace ids
// are drawn.
//
// Trace identity (DESIGN.md §13): an enabled span draws a span_id from its
// registry and parents itself under the thread's current TraceContext --
// the enclosing Span's, or one adopted from another thread/node via
// ContextScope.  With no current context it opens a new root trace.  The
// context is pushed for the span's lifetime, so nesting and adoption
// compose without any caller wiring.
#pragma once

#include <utility>

#include "obs/telemetry.hpp"
#include "util/time.hpp"

namespace netpart::obs {

class Span {
 public:
  /// Wall-clock span.  `name`/`category` must be string literals (or
  /// otherwise outlive the span): the disabled path must not copy them.
  Span(TelemetryRegistry& registry, const char* name,
       const char* category = "app");

  /// Sim-clock span starting at `start`; close it with end_at().  A
  /// sim-clock span destroyed without end_at() records zero duration.
  Span(TelemetryRegistry& registry, const char* name, SimTime start,
       const char* category = "sim");

  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// No-op when the span is disabled.
  void attr(const char* key, JsonValue value);

  /// End a sim-clock span at the given simulated time.
  void end_at(SimTime end);

  bool active() const { return registry_ != nullptr; }

  /// This span's trace identity -- capture it to parent work on another
  /// thread or node under this span (invalid when the span is disabled).
  const TraceContext& context() const { return context_; }

 private:
  void finish(double end_us);
  void open_context(TelemetryRegistry& registry);

  TelemetryRegistry* registry_ = nullptr;
  const char* name_ = "";
  const char* category_ = "";
  TraceContext context_;
  bool sim_clock_ = false;
  bool ended_ = false;
  double start_us_ = 0.0;
  double end_us_ = 0.0;
  AttrList attrs_;
};

}  // namespace netpart::obs
