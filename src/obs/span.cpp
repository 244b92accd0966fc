#include "obs/span.hpp"

namespace netpart::obs {

Span::Span(TelemetryRegistry& registry, const char* name,
           const char* category) {
  if (!registry.enabled()) return;
  registry_ = &registry;
  name_ = name;
  category_ = category;
  start_us_ = registry.wall_now_us();
  open_context(registry);
}

Span::Span(TelemetryRegistry& registry, const char* name, SimTime start,
           const char* category) {
  if (!registry.enabled()) return;
  registry_ = &registry;
  name_ = name;
  category_ = category;
  sim_clock_ = true;
  start_us_ = start.as_micros();
  end_us_ = start_us_;
  open_context(registry);
}

void Span::open_context(TelemetryRegistry& registry) {
  const TraceContext parent = current_context();
  context_.trace_id =
      parent.valid() ? parent.trace_id : registry.next_trace_id();
  context_.span_id = registry.next_trace_id();
  context_.parent_span_id = parent.valid() ? parent.span_id : 0;
  detail::push_context(context_);
}

Span::~Span() {
  if (registry_ == nullptr || ended_) return;
  finish(sim_clock_ ? end_us_ : registry_->wall_now_us());
}

void Span::attr(const char* key, JsonValue value) {
  if (registry_ == nullptr || ended_) return;
  attrs_.emplace_back(key, std::move(value));
}

void Span::end_at(SimTime end) {
  if (registry_ == nullptr || ended_) return;
  finish(end.as_micros());
}

void Span::finish(double end_us) {
  ended_ = true;
  detail::pop_context();
  SpanRecord record;
  record.name = name_;
  record.category = category_;
  record.sim_clock = sim_clock_;
  record.tid = this_thread_id();
  record.start_us = start_us_;
  record.dur_us = end_us > start_us_ ? end_us - start_us_ : 0.0;
  record.trace_id = context_.trace_id;
  record.span_id = context_.span_id;
  record.parent_span_id = context_.parent_span_id;
  record.attrs = std::move(attrs_);
  registry_->record_span(std::move(record));
}

}  // namespace netpart::obs
